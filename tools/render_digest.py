"""SHA-256 digests of render outputs, to show that a refactor keeps their bits.

Run from the repository root:

    python tools/render_digest.py [--save PATH.npz] [--against PATH.npz]

Each line names a scene and the SHA-256 over every array it produced, in
order: the five ``ImageBundle`` buffers of each view, the sample normals
where they were asked for, and the four ``RenderGrads`` arrays where a
backward pass ran.  To compare two commits, run this same file in a checkout
of each (it imports the library from ``src/`` next to it) and diff the
output.  The seed-1 scenes, cameras, light and upstream gradients come from
the benchmark's set-up code in ``bench/workloads.py``, which it only reads.

When the bits change, the numbers say by how much: ``--save`` writes every
digested array to an ``.npz`` file (about 240 MB), and a run of the other
checkout with ``--against`` that file adds to each scene's line, for each
array name in the order first digested, the largest |new - old| relative to
the old array's largest finite |entry| over the scene's arrays of that name.
"""

import argparse
import hashlib
import sys
import zipfile
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


def relative_change(new, old):
    """Largest |new - old| over the largest finite |old|: 0 if equal, inf if not comparable."""
    if new.shape != old.shape:
        return np.inf
    differ = ~((new == old) | (np.isnan(new) & np.isnan(old)))
    if not differ.any():
        return 0.0
    scale = np.max(np.abs(old[np.isfinite(old)]), initial=0.0)
    delta = np.max(np.abs(new[differ] - old[differ]))
    return delta / scale if scale > 0.0 else np.inf


class Digest:
    """The hash of one scene's arrays; each is also saved to ``archive`` and compared with
    ``reference`` when those are given."""

    def __init__(self, scene, archive=None, reference=None):
        self.sha = hashlib.sha256()
        self.scene = scene
        self.arrays = 0
        self.archive = archive
        self.reference = reference
        self.worst = {}  # array name -> largest relative change

    def add(self, name, array):
        array = np.ascontiguousarray(array)
        self.sha.update(f"{array.dtype}{array.shape}".encode())
        self.sha.update(array.tobytes())
        key = f"{self.scene}.{self.arrays:03d}.{name}"
        self.arrays += 1
        if self.archive is not None:
            with self.archive.open(key + ".npy", "w", force_zip64=True) as f:
                np.lib.format.write_array(f, array)
        if self.reference is not None:
            change = (relative_change(array, self.reference[key])
                      if key in self.reference.files else np.inf)
            self.worst[name] = max(self.worst.get(name, 0.0), change)

    def render(self, *args, **kwargs):
        """Render, digest every returned array, and return what ``R.render`` returned."""
        out = R.render(*args, **kwargs)
        parts = out if isinstance(out, tuple) else (out,)
        for name in BUNDLE:
            self.add(name, getattr(parts[0], name))
        if kwargs.get("want_sample_normals"):
            self.add("sample_normals", parts[-1])
        return out

    def backward(self, cache, *upstream):
        grads = R.render_backward(cache, *upstream)
        for name in GRADS:
            self.add(name, getattr(grads, name))


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

    def sdf64_forward(d):
        forward_orbit(d, sdf.grid, cameras, light)

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

    def face_blob64_forward(d):
        # An off-centre blob that reaches the +x face, seen from the orbit and from a camera
        # inside the cube on the far side of the centre.
        x = np.linspace(-0.5, 0.5, 64)
        r = np.sqrt((x[:, None, None] - 0.35) ** 2 + (x[None, :, None] - 0.1) ** 2
                    + (x[None, None, :] + 0.05) ** 2)
        inside = O.Camera(O.CameraPose(10.0, 180.0), 0.3, width=W.IMAGE_PX, height=W.IMAGE_PX)
        forward_orbit(d, density_grid(np.where(r < 0.15, W.DENSITY_INSIDE, 0.0)),
                      cameras + [inside], light)

    return [density128_forward, sdf64_training, density128_training, gaussian64_forward,
            hard_sphere64_forward, miss_2x2_training, sdf64_forward, face_blob64_forward]


def run(scenes, description):
    """Parse ``--save``/``--against``, then digest each scene and print its line.

    ``scenes()`` returns the scenes, each a function of one ``Digest`` that is
    named by its ``__name__``; it is called after the arguments parse."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--save", metavar="PATH", help="write every digested array to this .npz file")
    p.add_argument("--against", metavar="PATH",
                   help="report each scene's largest relative change from this --save file")
    args = p.parse_args()
    archive = zipfile.ZipFile(args.save, "w") if args.save else None
    reference = np.load(args.against) if args.against else None
    try:
        for scene in scenes():
            d = Digest(scene.__name__, archive, reference)
            scene(d)
            line = f"{scene.__name__:24s} {d.arrays:4d} arrays  {d.sha.hexdigest()}"
            if reference is not None:
                line += "  max rel |delta| " + ", ".join(
                    f"{name} {change:.1e}" for name, change in d.worst.items())
            print(line, flush=True)
    finally:
        if archive is not None:
            archive.close()
        if reference is not None:
            reference.close()


if __name__ == "__main__":
    run(scenes, __doc__.splitlines()[0])
