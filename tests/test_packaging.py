from pathlib import Path

import pytest

import annealplan
from annealplan import cli

tomllib = pytest.importorskip("tomllib")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def project():
    if not PYPROJECT.is_file():
        pytest.skip("no pyproject.toml next to the tests")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]


def test_version_matches_the_package(project):
    # The version is written both here and in annealplan/__init__.py.
    assert project["version"] == annealplan.__version__


def test_console_script_names_cli_main(project):
    assert project["scripts"]["annealplan"] == "annealplan.cli:main"
    assert callable(cli.main)
