"""Per-layer tracing: wraps the library calls a workload reaches in spans,
and turns the recorded spans into the per-layer metrics.

The wrapped names are the public calls that ``workloads.py`` makes and the
NumPy render kernel functions those reach.  Kernel work is reported under
the module that owns the concept: the trilinear gather and the scatter
under ``grid``, compositing and light lookups under ``render``.  No file of
the library is changed; the wrappers replace module attributes only while
an ``Instrument`` context is open and are restored when it closes.
"""

import statistics
import types
from collections import defaultdict

import numpy as np

import orbitforge._render_np as NP
import orbitforge.diffusion as D
import orbitforge.render as R
import orbitforge.sg as S

import workloads

CORNERS = 8
BYTES_PER_VALUE = 8


def _gather_attrs(args, result):
    """Computed bytes of one trilinear gather: points x 8 corners x channels x 8 B."""
    values, points = args[0], np.asarray(args[1])
    channels = values.shape[3] if np.ndim(values) == 4 else 1
    n = points.size // 3
    return {"points": n, "bytes": n * CORNERS * channels * BYTES_PER_VALUE}


def _hit_attrs(args, result):
    hit = result[2]
    return {"rays": int(hit.size), "hits": int(hit.sum())}


class TracedDenoiser:
    """Denoiser wrapper that records each call; ``cond`` tells the two CFG calls apart."""

    def __init__(self, inner, rec):
        self.inner = inner
        self.rec = rec

    def __call__(self, x, sigma, cond=None):
        span = self.rec.begin("diffusion.denoise", cond=cond is not None)
        try:
            return self.inner(x, sigma, cond)
        finally:
            self.rec.end(span)


class Instrument:
    """Context that swaps span-recording wrappers in for library calls."""

    def __init__(self, rec, workload):
        self.rec = rec
        self.workload = workload
        self._saved = []

    def _targets(self):
        rec = self.rec
        kernel = getattr(R, "_kernel", NP)
        return [
            (workloads, "make_cameras", lambda f: rec.wrap(f, "orbits.setup")),
            (workloads, "make_light", lambda f: rec.wrap(f, "render.light_table")),
            (R, "render", lambda f: rec.wrap(f, "render.render")),
            (R, "render_backward", lambda f: rec.wrap(f, "render.render_backward")),
            (R, "camera_rays", lambda f: rec.wrap(f, "render.rays")),
            (R, "intersect_unit_cube", lambda f: rec.wrap(f, "render.intersect", _hit_attrs)),
            (R, "node_gradient", lambda f: rec.wrap(f, "grid.node_gradient")),
            (R, "trilinear_interp", lambda f: rec.wrap(f, "grid.interp", _gather_attrs)),
            (kernel, "forward", lambda f: rec.wrap(f, "render.forward")),
            (kernel, "backward", lambda f: rec.wrap(f, "render.backward")),
            (NP, "_interp", lambda f: rec.wrap(f, "grid.interp", _gather_attrs)),
            (NP, "table_lookup", lambda f: rec.wrap(f, "render.lookup")),
            (NP, "table_scatter", lambda f: rec.wrap(f, "render.table_scatter")),
            (NP, "np", self._numpy_with_traced_bincount),
            (S, "_lobe_columns", lambda f: rec.wrap(f, "sg.basis")),
            (S, "fit_envmap", lambda f: rec.wrap(f, "sg.fit_envmap")),
            (D, "ddim_sample", lambda f: rec.wrap(f, "diffusion.ddim_sample")),
            (self.workload, "denoiser", lambda f: TracedDenoiser(f, rec)),
        ]

    def _numpy_with_traced_bincount(self, numpy):
        """A copy of the numpy namespace whose bincount (the voxel scatter) records spans.

        Calls from inside the light-table scatter stay in that span's self time.
        """
        rec = self.rec
        bincount = numpy.bincount
        traced = rec.wrap(bincount, "grid.scatter")

        def scatter(*args, **kwargs):
            if rec.current_name() == "render.table_scatter":
                return bincount(*args, **kwargs)
            return traced(*args, **kwargs)

        shim = types.ModuleType(numpy.__name__)
        shim.__dict__.update(numpy.__dict__)
        shim.bincount = scatter
        return shim

    def __enter__(self):
        for owner, attr, make in self._targets():
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


# Per-layer metric -> span name.  Spans around the benchmark's own public
# calls are reported inclusive; spans of the functions those reach are
# reported as self time, so they add up to the op time.
SELF_MS = {
    "render.rays_ms": "render.rays",
    "render.intersect_ms": "render.intersect",
    "render.forward_ms": "render.forward",
    "render.backward_ms": "render.backward",
    "render.lookup_ms": "render.lookup",
    "render.table_scatter_ms": "render.table_scatter",
    "grid.node_gradient_ms": "grid.node_gradient",
    "grid.interp_ms": "grid.interp",
    "grid.scatter_ms": "grid.scatter",
    "sg.basis_ms": "sg.basis",
    "diffusion.denoise_ms": "diffusion.denoise",
}
INCLUSIVE_MS = {
    "render.render_ms": "render.render",
    "render.render_backward_ms": "render.render_backward",
}
SETUP_MS = {
    "orbits.setup_ms": "orbits.setup",
    "render.light_table_ms": "render.light_table",
}


# Unit of every per-layer metric, in the order they are reported.  Byte
# counts and rates of the gathers are computed from array shapes, not
# measured, and their units say so.
UNITS = {
    "orbits.setup_ms": "ms",
    "render.light_table_ms": "ms",
    "render.render_ms": "ms",
    "render.render_backward_ms": "ms",
    "render.rays_ms": "ms",
    "render.intersect_ms": "ms",
    "render.forward_ms": "ms",
    "render.backward_ms": "ms",
    "render.lookup_ms": "ms",
    "render.table_scatter_ms": "ms",
    "render.hit_frac": "frac",
    "render.valid_frac": "frac",
    "render.samples": "count",
    "grid.node_gradient_ms": "ms",
    "grid.interp_ms": "ms",
    "grid.scatter_ms": "ms",
    "grid.gather_bytes": "B-computed",
    "grid.gather_gbps": "GB/s-computed",
    "sg.basis_ms": "ms",
    "sg.basis_calls": "count",
    "sg.fit_iters_to_tol": "count",
    "sg.fit_stall_frac": "frac",
    "diffusion.denoise_ms": "ms",
    "diffusion.denoiser_calls": "count",
    "diffusion.uncond_skip_frac": "frac",
    "diffusion.step_overhead_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "frac",
}


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, op_stats, traced_ms, untraced_ms):
    """Per-layer metrics from the spans of the traced setups and ops.

    ``op_stats`` maps each traced op's root span id to the stats its output
    check returned; ``traced_ms``/``untraced_ms`` are the op latencies of the
    paired traced and untraced ops.
    """
    spans = rec.spans
    own = rec.self_times()
    roots = {s.id: s for s in spans if s.parent is None}
    per_root = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, own):
        acc = per_root[s.root]
        acc["self:" + s.name] += self_s
        acc["incl:" + s.name] += s.duration
        acc["calls:" + s.name] += 1
        for key, value in s.attrs.items():
            acc[f"{s.name}.{key}"] += value
        if s.name == "grid.interp" and spans[s.parent].name == "render.forward":
            # Gathers of one forward share their sample points; keep the largest.
            acc[f"samples:{s.parent}"] = max(acc[f"samples:{s.parent}"], s.attrs["points"])

    setups = [per_root[r] for r, s in roots.items() if s.name == "setup"]
    ops = [per_root[r] for r in op_stats]

    def per_op(key):
        return _median([acc[key] for acc in ops])

    def total(key):
        return sum(acc[key] for acc in ops)

    out = {}
    for metric, name in SETUP_MS.items():
        out[metric] = _median([acc["incl:" + name] for acc in setups]) * 1e3
    for metric, name in INCLUSIVE_MS.items():
        out[metric] = per_op("incl:" + name) * 1e3
    for metric, name in SELF_MS.items():
        out[metric] = per_op("self:" + name) * 1e3

    valid = sum(s.get("valid_rays", 0) for s in op_stats.values())
    out["render.hit_frac"] = _ratio(total("render.intersect.hits"), total("render.intersect.rays"))
    out["render.valid_frac"] = _ratio(valid, total("render.intersect.hits"))
    out["render.samples"] = _median([
        sum(v for k, v in acc.items() if k.startswith("samples:")) for acc in ops
    ])
    out["grid.gather_bytes"] = per_op("grid.interp.bytes")
    out["grid.gather_gbps"] = _ratio(total("grid.interp.bytes"), total("self:grid.interp")) / 1e9
    out["sg.basis_calls"] = per_op("calls:sg.basis")
    fits = [s for s in op_stats.values() if "iters_to_tol" in s]
    out["sg.fit_iters_to_tol"] = _median([s["iters_to_tol"] for s in fits])
    out["sg.fit_stall_frac"] = _ratio(sum(s["stall_frac"] for s in fits), len(fits))

    cond_calls = total("diffusion.denoise.cond")
    out["diffusion.denoiser_calls"] = per_op("calls:diffusion.denoise")
    out["diffusion.uncond_skip_frac"] = _ratio(
        cond_calls - (total("calls:diffusion.denoise") - cond_calls), cond_calls
    )
    out["diffusion.step_overhead_ms"] = _median([
        _ratio(acc["self:diffusion.ddim_sample"], acc["diffusion.denoise.cond"])
        for acc in ops if acc["calls:diffusion.ddim_sample"]
    ]) * 1e3

    base = _median(untraced_ms)
    out["trace.overhead_ms"] = _median(traced_ms) - base
    out["trace.overhead_frac"] = _ratio(out["trace.overhead_ms"], base)
    return {name: out[name] for name in UNITS}
