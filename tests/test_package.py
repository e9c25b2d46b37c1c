import importlib
import pkgutil
from pathlib import Path

import pytest

import bessel_lab

MODULES = [info.name for info in pkgutil.iter_modules(bessel_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"bessel_lab.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


def test_package_all_resolves():
    missing = [n for n in bessel_lab.__all__ if not hasattr(bessel_lab, n)]
    assert missing == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert bessel_lab.__version__ == project["version"]
