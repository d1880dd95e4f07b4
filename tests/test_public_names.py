"""Each module's ``__all__`` lists exactly its public definitions, and the
package re-exports only names some module declares public."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import annealplan

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(annealplan.__path__) if info.name != "__main__"
)


def _module(name):
    return importlib.import_module(f"annealplan.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = _module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_listed(name):
    module = _module(name)
    defined = {
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


def test_package_reexports_are_public():
    tree = ast.parse(Path(annealplan.__file__).read_text(encoding="utf-8"))
    reexported = {
        alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    reexported.update(annealplan._DIVERSITY_NAMES)
    public = {n for name in MODULES for n in _module(name).__all__}
    assert sorted(reexported - public) == []
