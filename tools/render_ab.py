"""Interleaved A/B timing of benchmark and render ops between this checkout and another one.

Run from the repository root, with a checkout of the commit to compare against:

    python tools/render_ab.py OTHER_CHECKOUT [--pairs 42] [--case NAME ...]

Each checkout runs in a worker process of its own, which imports its
``src/orbitforge`` and this checkout's ``bench/workloads.py``, so the two
libraries share no heap or allocator state and run the same benchmark code.
The workers run in lockstep, one op at a time: each case builds the same
seeded inputs on each side, runs one untimed op on each, and then
``--pairs`` pairs of ops, one per side, the side that runs first alternating
from pair to pair.  Pair i runs op i, which renders or samples frame i % 21
(``envmap_fit`` runs the same fit every time).  Per case it prints the
median op time of each side, the ratio of the medians (this / other, below 1
when this checkout is faster), the quartiles of the per-pair ratios, the
pairs this checkout won, and each side's median minor page faults per op.

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
import multiprocessing
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


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
    """Seconds and minor page faults of op(i)."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    op(i)
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def serve(src, conn):
    """Worker: import the library under ``src`` and answer ("build", case) and ("run", i)
    requests on ``conn`` until it receives None; a failed request answers with its traceback."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import workloads

    op = None
    while (request := conn.recv()) is not None:
        kind, arg = request
        try:
            if kind == "build":
                op = CASES[arg](workloads)
                op(0)
                conn.send(("ok", None))
            else:
                conn.send(("ok", timed(op, arg)))
        except Exception:
            conn.send(("error", traceback.format_exc()))


class Side:
    """One checkout's worker process and its end of the pipe."""

    def __init__(self, ctx, root):
        self.conn, theirs = ctx.Pipe()
        self.process = ctx.Process(target=serve, args=(Path(root) / "src", theirs), daemon=True)
        self.process.start()
        theirs.close()

    def ask(self, kind, arg):
        self.conn.send((kind, arg))
        status, value = self.conn.recv()
        if status != "ok":
            raise RuntimeError(f"worker for {self.process.name} failed:\n{value}")
        return value

    def close(self):
        try:
            self.conn.send(None)
        except OSError:  # the worker has already exited
            pass
        self.process.join(timeout=30)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()


def compare(this, other, case, pairs):
    """Per-pair (seconds, faults) of each side, the side that runs first alternating."""
    this.ask("build", case)
    other.ask("build", case)
    results = []
    for i in range(pairs):
        if i % 2 == 0:
            mine = this.ask("run", i)
            theirs = other.ask("run", i)
        else:
            theirs = other.ask("run", i)
            mine = this.ask("run", i)
        results.append((mine, theirs))
    return results


def report(name, results):
    (this, this_faults), (other, other_faults) = (
        np.array(side).T for side in zip(*results))
    ratios = this / other
    q1, q3 = np.percentile(ratios, [25, 75])
    wins = int(np.sum(this < other))
    return (f"{name:24s} this {statistics.median(this) * 1e3:8.2f} ms  "
            f"other {statistics.median(other) * 1e3:8.2f} ms  "
            f"ratio {statistics.median(this) / statistics.median(other):.3f}  "
            f"pair IQR {q1:.3f}-{q3:.3f}  faster in {wins} of {len(results)}  "
            f"faults/op {statistics.median(this_faults):.0f} vs "
            f"{statistics.median(other_faults):.0f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other", help="root of the checkout to compare against")
    p.add_argument("--pairs", type=int, default=42, help="timed pairs per case (default 42)")
    p.add_argument("--case", action="append", choices=sorted(CASES),
                   help="case to run; repeat for several (default: all)")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be positive")
    if not (Path(args.other) / "src" / "orbitforge").is_dir():
        p.error(f"{args.other} has no src/orbitforge")
    ctx = multiprocessing.get_context("spawn")
    sides = [Side(ctx, ROOT), Side(ctx, args.other)]
    try:
        for name in args.case or CASES:
            print(report(name, compare(*sides, name, args.pairs)), flush=True)
    finally:
        for side in sides:
            side.close()


if __name__ == "__main__":
    main()
