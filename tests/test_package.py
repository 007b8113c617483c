"""Every public name and declared entry point of the package resolves."""

import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitforge
from orbitforge import diffusion, grid, orbits, sg

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


def test_import_loads_no_scipy_sparse():
    """scipy.sparse loads with the first render operator, not with the package."""
    code = (
        "import sys, numpy as np, orbitforge.render, orbitforge.sg, orbitforge.diffusion\n"
        "loaded = lambda: any(m.split('.')[:2] == ['scipy', 'sparse'] for m in sys.modules)\n"
        "before = loaded()\n"
        "orbitforge._render_np._trilinear(np.zeros(3), np.zeros((1, 3)), np.ones(1), 2)\n"
        "print(before, loaded())\n"
    )
    src = str(Path(orbitforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False", "True"]


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: orbits.static_orbit(2.5, 10.0), "integer k"),
        (lambda: orbits.dynamic_orbit(np.random.default_rng(0), 2.5,
                                      orbits.CameraPose(0.0, 0.0)), "integer k"),
        (lambda: orbits.DynamicOrbitParams(n_sinusoids=2.5), "n_sinusoids"),
        (lambda: orbits.DynamicOrbitParams(n_sinusoids=math.nan), "n_sinusoids"),
        (lambda: orbits.DynamicOrbitParams(period_range=(1.5, 3)), "period_range"),
        (lambda: orbits.DynamicOrbitParams(smooth_half_width=1.5), "smooth_half_width"),
        (lambda: sg.default_envmap(n_lobes=2.5), "non-negative integer"),
        (lambda: sg.fibonacci_sphere(np.float64(3.0)), "non-negative integer"),
        (lambda: diffusion.make_sigma_schedule(n_steps=2.5), "n_steps"),
        (lambda: diffusion.GaussianMixture([1.0], [[0.0]], [1.0]).sample(
            np.random.default_rng(0), 2.5), "sample count n"),
        (lambda: sg.mc_sphere_integral(np.ones_like, 2.5, np.random.default_rng(0)),
         "n_samples"),
        (lambda: sg.mc_sphere_integral(np.ones_like, math.nan, np.random.default_rng(0)),
         "n_samples"),
        (lambda: grid.SceneGrid.empty("density", 2.5), "resolution"),
    ],
    ids=["static-k", "dynamic-k", "dynamic-sinusoids", "dynamic-sinusoids-nan",
         "dynamic-period-range", "dynamic-half-width", "default-envmap-lobes", "fibonacci-n",
         "sigma-schedule-steps", "mixture-sample-n", "mc-sphere-samples",
         "mc-sphere-samples-nan", "grid-resolution"],
)
def test_non_integer_counts_are_rejected(call, match):
    """A count that is not an integer raises a ValueError naming it, in every module."""
    with pytest.raises(ValueError, match=match):
        call()
