"""orbitforge benchmark: one seeded workload, measured in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload orbit_fit_sdf64 --seed 1 --seconds 20 --trace 0

One client sends the next op only when the previous one has returned, in
this one process.  The workload's inputs are built from ``--seed`` (nine
times, to time set-up), the once-per-run checks run, one untimed op warms up,
and then ops run for ``--seconds``; each op's output is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs
every op twice, traced and untraced, in alternating order, and prints the
per-layer metrics from the traced ops with the measured tracing overhead.
The last line of standard output is one JSON object; a fuller record with
the environment goes to ``bench/out/``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 9
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return p, args


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    Returns (value, percentile, samples beyond); with ten samples or fewer
    the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


def git_commit(root):
    """Commit of the checkout from ``.git`` files, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def llc_bytes():
    """Size of the highest cache level of CPU 0, or None where sysfs does not say."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KM")) * scale))
    return best[1]


def environment(root, seed, workload):
    import numpy
    import scipy

    llc = llc_bytes()
    working_set = workload.working_set_bytes()
    return {
        "commit": git_commit(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "working_set_bytes": working_set,
        "working_set_over_llc": working_set / llc if llc else None,
    }


def run_op(workload, i, instrument=None):
    """Run and check op ``i``; returns (ok, milliseconds or None, stats, root span id)."""
    root = None
    try:
        t0 = time.perf_counter()
        if instrument is None:
            out = workload.op(i)
        else:
            with instrument, instrument.rec.span("op", index=i) as span:
                root = span.id
                out = workload.op(i)
        ms = (time.perf_counter() - t0) * 1e3
        ok, stats = workload.check(i, out)
    except Exception:
        traceback.print_exc()
        return False, None, {}, root
    return ok, ms, stats, root


def main(argv=None):
    parser, args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "orbitforge" / "__init__.py").is_file():
        print(f"bench: no orbitforge sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # must be set before numpy loads BLAS
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(src))

    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    rec = spans.SpanRecorder() if args.trace else None
    instrument = layers.Instrument(rec, workload) if args.trace else None

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if instrument is None:
            workload.setup(args.seed)
        else:
            with instrument, rec.span("setup"):
                workload.setup(args.seed)
        setup_s.append(time.perf_counter() - t0)

    # The once-per-run checks and the warm-up op count as attempts too, so a
    # failing gradient or reproducibility check shows in ``failed``.
    checks = workload.run_checks()
    ok, _, _, _ = run_op(workload, 0)
    checks.append(("warm_up_op", [] if ok else ["output check failed"]))
    run_failures = [f"{name}: {msg}" for name, msgs in checks for msg in msgs]
    attempted = len(checks)
    failed = sum(1 for _, msgs in checks if msgs)

    latencies, traced_ms, untraced_ms = [], [], []
    stats_list, traced_stats = [], {}
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        # In a traced run each input runs twice, traced and untraced, and
        # the order alternates so drift does not bias the overhead.
        modes = (None,) if not args.trace else ((True, False) if i % 2 == 0 else (False, True))
        for traced in modes:
            ok, ms, stats, span_root = run_op(workload, i, instrument if traced else None)
            attempted += 1
            failed += not ok
            if ms is None:
                continue
            latencies.append(ms)
            stats_list.append(stats)
            if traced:
                traced_ms.append(ms)
                traced_stats[span_root] = stats
            elif traced is False:
                untraced_ms.append(ms)
        i += 1
    if not latencies:
        print("bench: every measured op raised; no metrics to report", file=sys.stderr)
        return 1

    env = environment(root, args.seed, workload)
    named = workload.named(stats_list)
    if args.trace:
        values = layers.layer_metrics(rec, traced_stats, traced_ms, untraced_ms)
        metrics = {name: (value, layers.UNITS[name]) for name, value in values.items()}
        tail = None
    else:
        value, pct, beyond = tail_percentile(latencies)
        tail = {"percentile": pct, "samples": len(latencies), "beyond": beyond}
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (len(latencies) / (sum(latencies) / 1e3), "1/s"),
            "op_ms_p50": (statistics.median(latencies), "ms"),
            "op_ms_tail": (value, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "quality": (workload.quality(stats_list), "1"),
        }

    correct = failed == 0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env))
    for msg in run_failures:
        print("check failed: " + msg)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if tail:
        print(f"op_ms_tail is p{tail['percentile']} of {tail['samples']} ops "
              f"({tail['beyond']} beyond it)")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} checked outputs)")
    for name, (value, unit) in named.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seconds=args.seconds, env=env,
                  tail=tail, named={k: v for k, (v, _) in named.items()},
                  run_failures=run_failures, setup_s=setup_s, op_ms=latencies)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if rec is not None:
        rec.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
