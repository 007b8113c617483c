"""The benchmark's workloads: seeded inputs, one operation, and its output check.

Every call into the library goes through a module attribute (``R.render``,
``S.fit_envmap``, ...) or through a module-level helper of this file, so
that a traced run can wrap exactly those calls in spans (``layers.py``).
The reason for each workload is in ``README.md`` next to this file.
"""

import math

import numpy as np

import orbitforge.diffusion as D
import orbitforge.grid as G
import orbitforge.orbits as O
import orbitforge.render as R
import orbitforge.sg as S

N_VIEWS = 21
IMAGE_PX = 64
SAMPLES_PER_RAY = 64
N_LOBES = 24
# Conditioning pose of every orbit (elevation, azimuth in degrees); the seed
# only moves the sinusoidal perturbations, so per-view cost stays comparable
# across seeds.
COND_POSE = (10.0, 0.0)
# Rendered masks (>= 0.5) must overlap the analytic silhouette at least this
# much.  Measured values are about 0.91 (SDF) and 0.93 (density).
MASK_IOU_MIN = 0.8
# Sigmoid width of the SDF sphere.  The library default (0.02) leaves enough
# density outside the surface to widen the silhouette to IoU 0.67.
SDF_BETA = 0.005
# Field-gradient check: a small view, the probe voxels with the largest
# gradients, and central differences on the field with frozen normals.
FD_PX = 32
FD_PROBES = 3
FD_EPS = 1e-6
FD_RTOL = 1e-5
DENSITY_INSIDE = 100.0

N_NORMALS = 4096
FIT_ITERATIONS = 10
# sg.fit_iters_to_tol counts iterations until the loss is at most this
# share of the initial loss (about 8 of the 10 iterations at the parent).
FIT_TOL = 0.25
# Ground-truth lobes of envmap_fit (axes on a Fibonacci layout, rotated by
# the seed): a fixed shape keeps the fit equally hard on every seed.
TRUTH_SHARPNESS = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
TRUTH_AMPLITUDE = (1.5, 1.2, 1.0, 0.8, 0.6, 0.5)

DIM = 256
BATCH = 64
N_COMPONENTS = 8
# One variance for every component: seeded variances moved sample_nll by
# about 10% between seeds.
COMPONENT_VARIANCE = 0.2
SAMPLER_STEPS = 50
COND_TOKEN = "orbit"


def make_cameras(rng, size=IMAGE_PX):
    """Cameras of a seeded 21-view dynamic orbit at the unit cube's framing distance."""
    orbit = O.dynamic_orbit(rng, N_VIEWS, O.CameraPose(*COND_POSE))
    distance = O.adaptive_distance(0.5)
    return [O.Camera(p, distance, width=size, height=size) for p in orbit.poses]


def make_light(rng):
    """LightTable of a 24-lobe envmap with seeded sharpness and amplitudes."""
    lobes = tuple(
        S.SphericalGaussian(axis, float(s), float(a))
        for axis, s, a in zip(
            S.fibonacci_sphere(N_LOBES),
            rng.uniform(5.0, 20.0, N_LOBES),
            rng.uniform(0.2, 1.0, N_LOBES),
        )
    )
    return R.LightTable(S.Envmap(lobes))


def sphere_grid(kind, n, radius, rng):
    """Centred sphere as an SDF or a hard-edged density, with a seeded albedo ramp."""
    x = np.linspace(-0.5, 0.5, n)
    dist = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    base = rng.uniform(0.3, 0.7, 3)
    slope = rng.uniform(-0.2, 0.2, 3)
    albedo = np.empty((n, n, n, 3))
    for c in range(3):
        albedo[..., c] = (base[c] + slope[c] * x)[:, None, None]
    if kind == "sdf":
        return G.SceneGrid(kind, dist - radius, albedo, sdf_beta=SDF_BETA)
    return G.SceneGrid(kind, np.where(dist < radius, DENSITY_INSIDE, 0.0), albedo)


def sphere_silhouette(camera, radius):
    """Pixels whose centre ray hits a centred sphere, from the pinhole geometry alone."""
    f = camera.focal_px
    x = (np.arange(camera.width) + 0.5 - camera.width / 2.0) / f
    y = (np.arange(camera.height) + 0.5 - camera.height / 2.0) / f
    tan2 = y[:, None] ** 2 + x[None, :] ** 2
    return tan2 < radius ** 2 / (camera.distance ** 2 - radius ** 2)


def mask_iou(mask, silhouette):
    covered = mask >= 0.5
    return float((covered & silhouette).sum() / (covered | silhouette).sum())


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _median(stats, key):
    return float(np.median([s[key] for s in stats]))


class OrbitWorkload:
    """One op renders one orbit view; with ``backward`` it also back-propagates."""

    def __init__(self, name, kind, resolution, radius, backward):
        self.name = name
        self.kind = kind
        self.resolution = resolution
        self.radius = radius
        self.backward = backward

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.cameras = make_cameras(rng)
        self.light = make_light(rng)
        self.grid = sphere_grid(self.kind, self.resolution, self.radius, rng)
        self.silhouette = sphere_silhouette(self.cameras[0], self.radius)
        self.fd_rng_seed = int(rng.integers(2**31))
        if self.backward:
            shape = (IMAGE_PX, IMAGE_PX)
            self.upstream = [
                (rng.standard_normal(shape + (3,)), rng.standard_normal(shape),
                 rng.standard_normal(shape), rng.standard_normal(shape))
                for _ in self.cameras
            ]

    def working_set_bytes(self):
        """Node arrays the gathers read: field, albedo and the 3-channel field gradient."""
        return 7 * self.resolution ** 3 * 8

    def op(self, i):
        view = i % N_VIEWS
        kwargs = dict(samples_per_ray=SAMPLES_PER_RAY, jitter_seed=view)
        if not self.backward:
            return R.render(self.grid, self.cameras[view], self.light, **kwargs), None
        bundle, cache = R.render(
            self.grid, self.cameras[view], self.light, want_cache=True, **kwargs
        )
        return bundle, R.render_backward(cache, *self.upstream[view])

    def check(self, i, out):
        bundle, grads = out
        iou = mask_iou(bundle.mask, self.silhouette)
        ok = iou >= MASK_IOU_MIN and _finite(bundle.rgb, bundle.mask, bundle.illum)
        if grads is not None:
            ok = ok and _finite(grads.field, grads.albedo, grads.light_amplitudes)
        return ok, {"mask_iou": iou, "valid_rays": int(bundle.valid.sum())}

    def run_checks(self):
        """Once-per-run checks as (name, failure messages) pairs."""
        if not self.backward:
            return []
        return [("bitwise_rerender", self._bitwise_check()),
                ("field_gradient", self._gradient_check())]

    def _bitwise_check(self):
        first, second = (
            R.render(self.grid, self.cameras[0], self.light,
                     samples_per_ray=SAMPLES_PER_RAY, jitter_seed=0)
            for _ in range(2)
        )
        same = all(
            getattr(first, k).tobytes() == getattr(second, k).tobytes()
            for k in ("rgb", "mask", "depth", "illum", "normal")
        )
        return [] if same else ["re-render with the same jitter_seed is not bitwise identical"]

    def _gradient_check(self):
        cam0 = self.cameras[0]
        camera = O.Camera(cam0.pose, cam0.distance, width=FD_PX, height=FD_PX)
        bundle, cache, normals = R.render(
            self.grid, camera, self.light, samples_per_ray=SAMPLES_PER_RAY,
            want_cache=True, want_sample_normals=True,
        )
        rng = np.random.default_rng(self.fd_rng_seed)
        shape = (FD_PX, FD_PX)
        valid = bundle.valid
        g_rgb = rng.standard_normal(shape + (3,))
        g_mask, g_depth, g_illum = (rng.standard_normal(shape) for _ in range(3))
        g_depth = np.where(valid, g_depth, 0.0)
        g_field = R.render_backward(cache, g_rgb, g_mask, g_depth, g_illum).field

        def loss(field):
            grid = G.SceneGrid(self.grid.kind, field, self.grid.albedo,
                               self.grid.sdf_alpha, self.grid.sdf_beta)
            b = R.render(grid, camera, self.light, samples_per_ray=SAMPLES_PER_RAY,
                         normals_override=normals)
            depth = np.where(valid, b.depth, 0.0)
            return (np.sum(g_rgb * b.rgb) + np.sum(g_mask * b.mask)
                    + np.sum(g_depth * depth) + np.sum(g_illum * b.illum))

        failures = []
        for flat in np.argsort(np.abs(g_field).ravel())[-FD_PROBES:]:
            idx = np.unravel_index(flat, g_field.shape)
            field = self.grid.field.copy()
            field[idx] += FD_EPS
            plus = loss(field)
            field[idx] -= 2.0 * FD_EPS
            fd = (plus - loss(field)) / (2.0 * FD_EPS)
            if not abs(fd - g_field[idx]) <= FD_RTOL * abs(g_field[idx]):
                failures.append(
                    f"field gradient at voxel {tuple(map(int, idx))}: "
                    f"backward {g_field[idx]:.9g}, central difference {fd:.9g}"
                )
        return failures

    def quality(self, stats):
        return _median(stats, "mask_iou")

    def named(self, stats):
        return {"mask_iou": (_median(stats, "mask_iou"), "1")}


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def iterations_to_tol(history, tol=FIT_TOL):
    """First iteration whose loss is at most ``tol`` times the initial loss.

    Returns ``len(history)`` when the fit never gets there.
    """
    reached = np.flatnonzero(history <= tol * history[0])
    return int(reached[0]) if reached.size else len(history)


class EnvmapFit:
    """One op is one fit_envmap call over the same shaded points."""

    name = "envmap_fit"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.normals = S.fibonacci_sphere(N_NORMALS)
        self.albedo = rng.uniform(0.3, 0.9, (N_NORMALS, 3))
        axes = S.fibonacci_sphere(len(TRUTH_SHARPNESS)) @ random_rotation(rng).T
        truth = S.Envmap(tuple(
            S.SphericalGaussian(a, s, m)
            for a, s, m in zip(axes, TRUTH_SHARPNESS, TRUTH_AMPLITUDE)
        ))
        self.target = self.albedo * S.irradiance_many(truth, self.normals)[:, None]
        self.init = S.default_envmap(N_LOBES)

    def working_set_bytes(self):
        """Points, albedo, target and the (points, lobes) basis the fit re-evaluates."""
        return (3 * N_NORMALS * 3 + N_NORMALS * N_LOBES) * 8

    def op(self, i):
        return S.fit_envmap(
            [(self.target, self.normals, self.albedo)],
            init=self.init, iterations=FIT_ITERATIONS, return_history=True,
        )

    def check(self, i, out):
        envmap, history = out
        ok = (
            _finite(history, envmap.amplitudes, envmap.sharpnesses)
            and bool(np.all(np.diff(history) <= 0.0))
            and history[-1] < history[0]
        )
        return ok, {
            "fit_loss_ratio": float(history[-1] / history[0]),
            "iters_to_tol": iterations_to_tol(history),
            "stall_frac": float(np.mean(np.diff(history) == 0.0)),
        }

    def run_checks(self):
        return []

    def quality(self, stats):
        return 1.0 - _median(stats, "fit_loss_ratio")

    def named(self, stats):
        return {"fit_loss_ratio": (_median(stats, "fit_loss_ratio"), "1")}


class OrbitSampleCfg:
    """One op samples one orbit frame with that frame's triangular CFG weight."""

    name = "orbit_sample_cfg"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        k = N_COMPONENTS
        means = rng.standard_normal((2 * k, DIM))
        variances = np.full(2 * k, COMPONENT_VARIANCE)
        weights = rng.uniform(0.5, 1.5, 2 * k)
        # The null (unconditional) mixture holds the conditional modes plus
        # as many others, as a data set holds more than one object.
        self.cond = D.GaussianMixture(weights[:k], means[:k], variances[:k])
        null = D.GaussianMixture(weights, means, variances)
        self.denoiser = D.GaussianMixtureDenoiser({COND_TOKEN: self.cond, None: null})
        self.schedule = D.make_sigma_schedule(n_steps=SAMPLER_STEPS)
        self.guidance = D.GuidanceSchedule("triangular", 1.0, 3.0, N_VIEWS)
        self.x_init = self.schedule[0] * rng.standard_normal((N_VIEWS, BATCH, DIM))

    def working_set_bytes(self):
        """Batch state plus the (batch, components, dim) offsets of the null mixture."""
        return (BATCH * DIM + BATCH * 2 * N_COMPONENTS * DIM) * 8

    def op(self, i):
        frame = i % N_VIEWS
        return D.ddim_sample(
            self.denoiser, self.schedule, cond=COND_TOKEN,
            guidance=self.guidance.at(frame), x_init=self.x_init[frame],
        )

    def check(self, i, out):
        ok = out.shape == (BATCH, DIM) and _finite(out)
        nll = float(-np.mean(self.cond.log_marginal(out, 0.0))) if ok else math.inf
        return ok, {"sample_nll": nll}

    def run_checks(self):
        return []

    def quality(self, stats):
        # Geometric-mean likelihood per dimension: positive, higher is better,
        # and monotone in sample_nll.
        return math.exp(-_median(stats, "sample_nll") / DIM)

    def named(self, stats):
        return {"sample_nll": (_median(stats, "sample_nll"), "nats")}


WORKLOADS = {
    "orbit_fit_sdf64": lambda: OrbitWorkload("orbit_fit_sdf64", "sdf", 64, 0.35, True),
    "orbit_view_density128": lambda: OrbitWorkload("orbit_view_density128", "density", 128, 0.15, False),
    "envmap_fit": EnvmapFit,
    "orbit_sample_cfg": OrbitSampleCfg,
}
