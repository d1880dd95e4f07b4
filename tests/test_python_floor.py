"""Every source and test file parses as Python 3.10, pyproject's floor."""

import ast
from pathlib import Path

import pytest

import annealplan

ROOTS = [Path(annealplan.__file__).resolve().parent, Path(__file__).resolve().parent]
FILES = sorted(path for root in ROOTS for path in root.rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
