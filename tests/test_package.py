"""Every public name and declared entry point of the package resolves."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import orbitforge

MODULES = sorted(
    f"orbitforge.{m.name}" for m in pkgutil.iter_modules(orbitforge.__path__)
)


def test_modules_found():
    """An empty module list would let the parametrized check pass vacuously."""
    assert "orbitforge.render" in MODULES and "orbitforge.diffusion" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_script_entry_points_resolve():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for script, target in scripts.items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert hasattr(module, attr.split(".")[0]), f"{script} -> {target}"
