"""SHA-256 digests of render outputs, to show that a refactor keeps their bits.

Run from the repository root:

    python tools/render_digest.py

Each line names a scene and the SHA-256 over every array it produced, in
order: the five ``ImageBundle`` buffers of each view, the sample normals
where they were asked for, and the four ``RenderGrads`` arrays where a
backward pass ran.  To compare two commits, run this same file in a checkout
of each (it imports the library from ``src/`` next to it) and diff the
output.  The seed-1 scenes, cameras, light and upstream gradients come from
the benchmark's set-up code in ``bench/workloads.py``, which it only reads.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import orbitforge.grid as G  # noqa: E402
import orbitforge.orbits as O  # noqa: E402
import orbitforge.render as R  # noqa: E402
import workloads as W  # noqa: E402

SEED = 1
BUNDLE = ("rgb", "mask", "depth", "normal", "illum")
GRADS = ("field", "albedo", "light_table", "light_amplitudes")


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.arrays = 0

    def add(self, array):
        array = np.ascontiguousarray(array)
        self.sha.update(f"{array.dtype}{array.shape}".encode())
        self.sha.update(array.tobytes())
        self.arrays += 1

    def render(self, *args, **kwargs):
        """Render, digest every returned array, and return what ``R.render`` returned."""
        out = R.render(*args, **kwargs)
        parts = out if isinstance(out, tuple) else (out,)
        for name in BUNDLE:
            self.add(getattr(parts[0], name))
        if kwargs.get("want_sample_normals"):
            self.add(parts[-1])
        return out

    def backward(self, cache, *upstream):
        grads = R.render_backward(cache, *upstream)
        for name in GRADS:
            self.add(getattr(grads, name))


def bench_scene(name):
    workload = W.WORKLOADS[name]()
    workload.setup(SEED)
    return workload


def density_grid(field):
    """A density grid with a seeded albedo."""
    n = field.shape[0]
    albedo = np.random.default_rng(SEED).uniform(0.2, 0.8, (n, n, n, 3))
    return G.SceneGrid("density", field, albedo)


def radius(n):
    x = np.linspace(-0.5, 0.5, n)
    return np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)


def upstream(rng, shape):
    """Seeded upstream gradients of rgb, mask, depth and illum."""
    rgb = rng.standard_normal(shape + (3,))
    return (rgb,) + tuple(rng.standard_normal(shape) for _ in range(3))


def forward_orbit(d, grid, cameras, light):
    for view, cam in enumerate(cameras):
        d.render(grid, cam, light, samples_per_ray=W.SAMPLES_PER_RAY, jitter_seed=view)


def scenes():
    density = bench_scene("orbit_view_density128")
    sdf = bench_scene("orbit_fit_sdf64")
    cameras, light = sdf.cameras, sdf.light

    def density128_forward(d):
        forward_orbit(d, density.grid, density.cameras, density.light)

    def sdf64_training(d):
        rng = np.random.default_rng(SEED)
        for view in (0, 5, 13):
            for jitter_seed in (0, 1, 7):
                kwargs = dict(samples_per_ray=W.SAMPLES_PER_RAY, jitter_seed=jitter_seed)
                _, cache, _ = d.render(sdf.grid, cameras[view], light, want_cache=True,
                                       want_sample_normals=True, **kwargs)
                d.backward(cache, *sdf.upstream[view])
                normals = rng.standard_normal((W.IMAGE_PX, W.IMAGE_PX, W.SAMPLES_PER_RAY, 3))
                normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
                d.render(sdf.grid, cameras[view], light, normals_override=normals, **kwargs)

    def density128_training(d):
        _, cache = d.render(density.grid, density.cameras[0], density.light,
                            samples_per_ray=W.SAMPLES_PER_RAY, want_cache=True)
        d.backward(cache, *upstream(np.random.default_rng(SEED), (W.IMAGE_PX, W.IMAGE_PX)))

    def gaussian64_forward(d):
        forward_orbit(d, density_grid(30.0 * np.exp(-((radius(64) / 0.25) ** 2))), cameras, light)

    def hard_sphere64_forward(d):
        forward_orbit(d, density_grid(np.where(radius(64) < 0.55, W.DENSITY_INSIDE, 0.0)),
                      cameras, light)

    def miss_2x2_training(d):
        # At distance 2 a 170-degree field of view puts all four pixel centres outside the cube.
        cam = O.Camera(O.CameraPose(20.0, 35.0), 2.0, width=2, height=2, fov_deg=170.0)
        _, cache, _ = d.render(sdf.grid, cam, light, samples_per_ray=W.SAMPLES_PER_RAY,
                               want_cache=True, want_sample_normals=True)
        d.backward(cache, *upstream(np.random.default_rng(SEED), (2, 2)))

    return [density128_forward, sdf64_training, density128_training, gaussian64_forward,
            hard_sphere64_forward, miss_2x2_training]


def main():
    for scene in scenes():
        d = Digest()
        scene(d)
        print(f"{scene.__name__:24s} {d.arrays:4d} arrays  {d.sha.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
