"""Interleaved A/B timing of benchmark and render ops between this checkout and another one.

Run from the repository root, with a checkout of the commit to compare against:

    python tools/render_ab.py OTHER_CHECKOUT [--pairs 42] [--case NAME ...]

Both libraries load into one process: this checkout's ``src/orbitforge`` as
``orbitforge`` and the other's as ``orbitforge_other``.  Each case builds the
same seeded inputs with each library, runs one untimed op on each side, and
then ``--pairs`` pairs of ops, one per side, the side that runs first
alternating from pair to pair.  Pair i runs op i, which renders or samples
frame i % 21 (``envmap_fit`` runs the same fit every time).  Per case it
prints the median op time of each side, the ratio of the medians (this /
other, below 1 when this checkout is faster), the quartiles of the per-pair
ratios, and the pairs this checkout won.

Cases:

- ``orbit_fit_sdf64``, ``orbit_view_density128``, ``envmap_fit`` and
  ``orbit_sample_cfg``: the benchmark's ops, from ``bench/workloads.py``,
  which this file only reads;
- ``dense_view128``: a forward-only view of a 128^3 30 * exp(-(r / 0.25)^2)
  density with uniform albedo 0.5, where every sample is gathered;
- ``kept_density128``: ``orbit_view_density128``'s grid rendered with its
  march kept and then differentiated, which also gathers every sample.

The benchmark's seed-1 set-up serves every case.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads as W  # noqa: E402

SEED = 1
# The library modules ``bench/workloads.py`` reaches through its globals.
LIBRARY_GLOBALS = {"D": "diffusion", "G": "grid", "O": "orbits", "R": "render", "S": "sg"}


def load_library(src, name):
    """The ``orbitforge`` package under ``src``, imported as ``name``."""
    init = Path(src) / "orbitforge" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_workloads(package):
    """A copy of ``bench/workloads.py`` whose library calls go to ``package``."""
    spec = importlib.util.spec_from_file_location(f"workloads_{package.__name__}", W.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for attr, sub in LIBRARY_GLOBALS.items():
        setattr(module, attr, importlib.import_module(f"{package.__name__}.{sub}"))
    return module


def bench_op(name):
    def build(w):
        workload = w.WORKLOADS[name]()
        workload.setup(SEED)
        return workload.op
    return build


def dense_view128(w):
    scene = w.WORKLOADS["orbit_view_density128"]()
    scene.setup(SEED)
    cameras, light = scene.cameras, scene.light
    x = np.linspace(-0.5, 0.5, 128)
    r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    grid = w.G.SceneGrid("density", 30.0 * np.exp(-((r / 0.25) ** 2)),
                         np.full((128, 128, 128, 3), 0.5))

    def op(i):
        view = i % w.N_VIEWS
        return w.R.render(grid, cameras[view], light,
                          samples_per_ray=w.SAMPLES_PER_RAY, jitter_seed=view)
    return op


def kept_density128(w):
    scene = w.WORKLOADS["orbit_view_density128"]()
    scene.setup(SEED)
    rng = np.random.default_rng(SEED)
    shape = (w.IMAGE_PX, w.IMAGE_PX)
    upstream = (rng.standard_normal(shape + (3,)),) + tuple(
        rng.standard_normal(shape) for _ in range(3))

    def op(i):
        view = i % w.N_VIEWS
        bundle, cache = w.R.render(scene.grid, scene.cameras[view], scene.light,
                                   samples_per_ray=w.SAMPLES_PER_RAY, jitter_seed=view,
                                   want_cache=True)
        g_rgb, g_mask, g_depth, g_illum = upstream
        return w.R.render_backward(cache, g_rgb, g_mask, np.where(bundle.valid, g_depth, 0.0),
                                   g_illum)
    return op


CASES = {
    "orbit_fit_sdf64": bench_op("orbit_fit_sdf64"),
    "orbit_view_density128": bench_op("orbit_view_density128"),
    "envmap_fit": bench_op("envmap_fit"),
    "orbit_sample_cfg": bench_op("orbit_sample_cfg"),
    "dense_view128": dense_view128,
    "kept_density128": kept_density128,
}


def timed(op, i):
    start = time.perf_counter()
    op(i)
    return time.perf_counter() - start


def compare(this_op, other_op, pairs):
    """Per-pair times (this, other), the side that runs first alternating."""
    this_op(0)
    other_op(0)
    times = []
    for i in range(pairs):
        if i % 2 == 0:
            this = timed(this_op, i)
            other = timed(other_op, i)
        else:
            other = timed(other_op, i)
            this = timed(this_op, i)
        times.append((this, other))
    return times


def report(name, times):
    this, other = (np.array(side) for side in zip(*times))
    ratios = this / other
    q1, q3 = np.percentile(ratios, [25, 75])
    wins = int(np.sum(this < other))
    return (f"{name:24s} this {statistics.median(this) * 1e3:8.2f} ms  "
            f"other {statistics.median(other) * 1e3:8.2f} ms  "
            f"ratio {statistics.median(this) / statistics.median(other):.3f}  "
            f"pair IQR {q1:.3f}-{q3:.3f}  faster in {wins} of {len(times)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other", help="root of the checkout to compare against")
    p.add_argument("--pairs", type=int, default=42, help="timed pairs per case (default 42)")
    p.add_argument("--case", action="append", choices=sorted(CASES),
                   help="case to run; repeat for several (default: all)")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be positive")
    this = W
    other = load_workloads(load_library(Path(args.other) / "src", "orbitforge_other"))
    for name in args.case or CASES:
        times = compare(CASES[name](this), CASES[name](other), args.pairs)
        print(report(name, times), flush=True)


if __name__ == "__main__":
    main()
