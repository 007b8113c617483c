"""Spherical-Gaussian environment lighting.

A lobe is G(x) = a * exp(s * (mu . x - 1)) on the unit sphere with unit
axis mu, sharpness s > 0 and scalar (white light) amplitude a >= 0.
Products of two lobes integrate in closed form, which gives Lambertian
irradiance when one factor is the cosine-lobe approximation of the
clamped-cosine kernel.  That integral depends on the lobe parameters only
through d_m = ||s1 mu1 + s2 mu2||, so the envmap fit differentiates it in
closed form as well.  A Monte-Carlo sphere integrator is included as the
independent oracle for all closed-form identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._checks import is_integer

__all__ = [
    "SphericalGaussian",
    "Envmap",
    "COSINE_LOBE_SHARPNESS",
    "COSINE_LOBE_AMPLITUDE",
    "sg_eval",
    "sg_inner_product",
    "cosine_lobe",
    "irradiance_many",
    "irradiance_basis",
    "hsv_value",
    "illum_loss",
    "fit_envmap",
    "default_envmap",
    "EnvmapFitError",
    "mc_sphere_integral",
    "fibonacci_sphere",
]

# Spherical-Gaussian approximation of the clamped-cosine shading kernel.
COSINE_LOBE_SHARPNESS = 2.133
COSINE_LOBE_AMPLITUDE = 1.17


@dataclass(frozen=True)
class SphericalGaussian:
    """One lobe: unit axis, sharpness > 0, amplitude >= 0."""

    axis: np.ndarray
    sharpness: float
    amplitude: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=np.float64)
        if axis.shape != (3,):
            raise ValueError("axis must be a 3-vector")
        norm = np.linalg.norm(axis)
        if not 1e-12 <= norm < np.inf:
            raise ValueError("axis must be finite and nonzero")
        object.__setattr__(self, "axis", axis / norm)
        if not 0.0 < self.sharpness < np.inf:
            raise ValueError("sharpness must be > 0 and finite")
        if not 0.0 <= self.amplitude < np.inf:
            raise ValueError("amplitude must be >= 0 and finite")


@dataclass(frozen=True)
class Envmap:
    """Environment light as a sum of spherical-Gaussian lobes."""

    lobes: Tuple[SphericalGaussian, ...]

    def __post_init__(self):
        object.__setattr__(self, "lobes", tuple(self.lobes))

    def __len__(self):
        return len(self.lobes)

    @property
    def axes(self):
        """(n_lobes, 3) unit axes; (0, 3) for an envmap without lobes."""
        return np.array([g.axis for g in self.lobes]).reshape(-1, 3)

    @property
    def sharpnesses(self):
        return np.array([g.sharpness for g in self.lobes])

    @property
    def amplitudes(self):
        return np.array([g.amplitude for g in self.lobes])


def sum3(p):
    """``np.sum(p, axis=-1)`` over a last axis of length 3, with its bits: left to right from
    +0.0, column by column, which is 15-30 times faster than NumPy's reduction there."""
    return p[..., 0] + p[..., 1] + p[..., 2] + 0.0


def norm3(v):
    """``np.linalg.norm(v, axis=-1)`` over a last axis of length 3, with its bits."""
    return np.sqrt(sum3(v * v))


def _check_unit(x, name="direction"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (3,):
        raise ValueError(f"{name} must have a last axis of length 3, got shape {x.shape}")
    if np.any(np.abs(norm3(x) - 1.0) > 1e-6):
        raise ValueError(f"{name} must be unit length (tolerance 1e-6)")
    return x


def sg_eval(g, x):
    """Evaluate a lobe at unit direction(s) x."""
    x = _check_unit(x)
    return g.amplitude * np.exp(g.sharpness * (x @ g.axis - 1.0))


def sg_inner_product(g1, g2):
    """Closed-form integral over the sphere of the product of two lobes.

    With d_m = ||s1 mu1 + s2 mu2||, the integral is
    (2 pi a1 a2 / d_m) e^{d_m - (s1 + s2)} (1 - e^{-2 d_m}); the removable
    singularity at exactly opposed equal-sharpness lobes is evaluated via
    its analytic limit.
    """
    d_m = max(float(np.linalg.norm(g1.sharpness * g1.axis + g2.sharpness * g2.axis)), 1e-300)
    # Grouping the amplitude product keeps the operation exactly symmetric.
    scale = 2.0 * np.pi * (g1.amplitude * g2.amplitude)
    return float(
        scale * math.exp(d_m - (g1.sharpness + g2.sharpness)) * (-np.expm1(-2.0 * d_m) / d_m)
    )


def cosine_lobe(n):
    """The lobe approximating max(n . x, 0) on the sphere."""
    n = _check_unit(n, "normal")
    return SphericalGaussian(n, COSINE_LOBE_SHARPNESS, COSINE_LOBE_AMPLITUDE)


def irradiance_many(envmap, normals):
    """Lambertian irradiance (lobe products / pi) at (m, 3) unit normals."""
    normals = _check_unit(normals, "normal")
    return irradiance_basis(envmap, normals) @ envmap.amplitudes


def _lobe_columns(axes, sharp, normals, ws):
    """Unit-amplitude irradiance basis at (3, m) unit normals, one row per lobe.

    Fills ``ws`` = (d, q, cols, scratch), lobe-major (n_lobes, m), by ``out=`` ufuncs in the
    per-element order the tests hold bit for bit, and returns cols: d = ||s mu + s_c n|| from
    (s - s_c)^2 + 2 s s_c (1 + mu . n), q = -expm1(-2 d), cols = 2 A_c e^(d - s - s_c) q / d.
    """
    d, q, cols, scratch = ws
    s_c = COSINE_LOBE_SHARPNESS
    # Not axes @ normals: with the second of 2 cores busy, that threaded BLAS
    # gemm took 4 ms instead of 0.15 ms at 8192 x 24; gemv did not slow.
    np.multiply(axes[:, :1], normals[0], out=d)
    d += np.multiply(axes[:, 1:2], normals[1], out=scratch)
    d += np.multiply(axes[:, 2:], normals[2], out=scratch)
    d += 1.0
    d *= (2.0 * s_c * sharp)[:, None]
    d += ((sharp - s_c) ** 2)[:, None]
    # Rounding takes d^2 below 0 for opposed axes; the floor keeps q / d at its limit 2.
    np.sqrt(np.maximum(d, np.finfo(np.float64).tiny, out=d), out=d)
    np.exp(np.subtract(d, (sharp + s_c)[:, None], out=cols), out=cols)
    cols *= 2.0 * COSINE_LOBE_AMPLITUDE
    np.negative(np.expm1(np.multiply(d, -2.0, out=q), out=q), out=q)
    cols *= np.divide(q, d, out=scratch)
    return cols


def _log_slope_over_d(ws, out):
    """(coth d - 1/d) / d = (2/q - 1 - 1/d) / d into ``out`` for a ``_lobe_columns`` workspace;
    below d = 4e-3 the series 1/3 - d^2/45 replaces that cancelling difference (within 4e-11)."""
    d, q, _, scratch = ws
    np.subtract(np.divide(2.0, q, out=out), 1.0, out=out)
    out -= np.divide(1.0, d, out=scratch)
    out /= d
    for j in np.flatnonzero(d.min(axis=1) < 4e-3):
        out[j] = np.where(d[j] < 4e-3, 1.0 / 3.0 - d[j] * d[j] / 45.0, out[j])
    return out


def irradiance_basis(envmap, normals):
    """Per-unit-amplitude irradiance contribution of each lobe.

    Returns (m, n_lobes) with irradiance = basis @ amplitudes; the
    irradiance is exactly linear in the amplitudes because the clamped
    lobe products of nonnegative lobes are already nonnegative.  ``normals``
    must be (m, 3); any other shape is a ``ValueError``.
    """
    normals = np.asarray(normals, dtype=np.float64)
    if normals.ndim != 2 or normals.shape[1] != 3:
        raise ValueError(f"normals must have shape (m, 3), got shape {normals.shape}")
    # Four arrays, not one block, which would raise glibc's mmap threshold past later arrays.
    ws = [np.empty((len(envmap), len(normals))) for _ in range(4)]
    return np.ascontiguousarray(_lobe_columns(envmap.axes, envmap.sharpnesses, normals.T, ws).T)


def hsv_value(rgb):
    """HSV value channel: max(r, g, b)."""
    return np.max(np.asarray(rgb, dtype=np.float64), axis=-1)


def illum_loss(image, illum, foreground=None):
    """Mean squared gap between image HSV-value and rendered irradiance.

    Averaged over foreground pixels; with no mask every pixel counts.
    """
    image = np.asarray(image, dtype=np.float64)
    illum = np.asarray(illum, dtype=np.float64)
    if image.shape[:-1] != illum.shape:
        raise ValueError(
            f"image {image.shape} and illumination {illum.shape} resolutions differ"
        )
    if not (np.isfinite(image).all() and np.isfinite(illum).all()):
        raise ValueError("image and illum must be finite")
    diff = (hsv_value(image) - illum) ** 2
    if foreground is None:
        return float(diff.mean())
    foreground = np.asarray(foreground, dtype=bool)
    if foreground.shape != illum.shape:
        raise ValueError("foreground mask resolution mismatch")
    if not foreground.any():
        return 0.0
    return float(diff[foreground].mean())


def mc_sphere_integral(f, n_samples, rng):
    """Uniform Monte-Carlo integral over the unit sphere: (4 pi / n) sum f."""
    if not is_integer(n_samples) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    z = rng.uniform(-1.0, 1.0, n_samples)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    return float(4.0 * np.pi * np.mean(f(pts)))


def fibonacci_sphere(n):
    """n near-uniform directions from the golden-angle spiral."""
    if not is_integer(n) or n < 0:
        raise ValueError("n must be a non-negative integer")
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def default_envmap(n_lobes=24, sharpness=10.0, amplitude=0.5):
    """Fibonacci-sphere lobe layout used to initialize fits."""
    return Envmap(
        tuple(
            SphericalGaussian(axis, sharpness, amplitude)
            for axis in fibonacci_sphere(n_lobes)
        )
    )


class EnvmapFitError(RuntimeError):
    """Raised when the fit cannot find a non-increasing step for too long."""


# fit_envmap's first line-search step; accepted steps grow by 1.5x up to 10x it.
_FIT_STEP_SIZE = 0.5
# Consecutive failed line searches after which fit_envmap gives up.
_FIT_MAX_FAIL_STREAK = 50


def _shading_loss(light, albedo, target):
    resid = albedo * light[:, None] - target
    return float(np.mean(resid * resid))


def _fit_gradients(axes, sharp, amps, normals, albedo, target, light, ws, w):
    """Loss gradients in amplitude, axis and log-sharpness at irradiance ``light``, from the
    point's ``_lobe_columns`` workspace ``ws`` over the (3, m) ``normals``.

    With r = dL/dlight and w_ji = a_j r_i (dcol_ji/dd) / d_ji, written into ``w``, the gradient
    in v_j = s_j mu_j is g_j = s_j mu_j sum_i w_ji + s_c (w N)_j.  The axis gradient s_j g_j is
    projected onto the tangent plane, as each step renormalizes the axis; the log-sharpness
    one is s_j (mu_j . g_j - a_j (cols r)_j)."""
    resid = albedo * light[:, None] - target
    r = (2.0 / resid.size) * sum3(albedo * resid)
    g_amp = ws[2] @ r
    np.multiply(_log_slope_over_d(ws, w), ws[2], out=w)
    w *= r
    w *= amps[:, None]
    # w N as matrix-vector products, not a gemm: see _lobe_columns.
    w_n = np.stack([w @ n for n in normals], axis=1)
    g_v = (sharp * w.sum(axis=1))[:, None] * axes + COSINE_LOBE_SHARPNESS * w_n
    g_axes = sharp[:, None] * g_v
    g_axes -= axes * np.sum(axes * g_axes, axis=1, keepdims=True)
    g_logsharp = sharp * (np.sum(axes * g_v, axis=1) - amps * g_amp)
    return g_amp, g_axes, g_logsharp


def fit_envmap(views, init=None, iterations=200, return_history=False):
    """Fit lobe parameters to shaded images with known normals and albedo.

    ``views`` is a sequence of (rgb, normals, albedo[, foreground]) tuples; buffers may
    be per-pixel images or flat point lists, with one point count per view.  Foreground
    buffers must be finite, foreground normals unit length and ``init`` must have at
    least one lobe, and ``iterations`` an integer >= 0, else ``ValueError``.  Amplitude,
    axis and log-sharpness gradients are all closed form (``_fit_gradients``).
    Projected gradient descent with a backtracking line search keeps the loss
    non-increasing over accepted steps; ``_FIT_MAX_FAIL_STREAK`` consecutive failed line
    searches raise ``EnvmapFitError``.  The views are only read.  A call allocates a
    (3, points) copy of the normals, ``_lobe_columns`` workspaces for the current and
    the trial point and the gradient's ``w`` once; an accepted trial swaps the two.
    """
    if not is_integer(iterations) or iterations < 0:
        raise ValueError(f"iterations must be an integer >= 0, got {iterations!r}")
    bufs = []
    for i, view in enumerate(views):
        rgb, normals, albedo = (np.asarray(b, dtype=np.float64).reshape(-1, 3) for b in view[:3])
        keep = (None if len(view) < 4 or view[3] is None
                else np.asarray(view[3]).reshape(-1).astype(bool))
        fg = len(rgb) if keep is None else keep.size
        if not len(rgb) == len(normals) == len(albedo) == fg:
            raise ValueError(f"view {i} needs one point count per buffer, got rgb {len(rgb)}, "
                             f"normals {len(normals)}, albedo {len(albedo)} and foreground "
                             f"{'(none)' if keep is None else fg}")
        if keep is not None:
            rgb, normals, albedo = rgb[keep], normals[keep], albedo[keep]
        bufs.append((rgb, normals, albedo))
    if not bufs:
        raise ValueError("need at least one view")
    target, normals, albedo = (np.concatenate(b) for b in zip(*bufs))
    if target.shape[0] == 0:
        raise ValueError("no foreground pixels to fit")
    for name, buf in (("rgb", target), ("normals", normals), ("albedo", albedo)):
        if not np.isfinite(buf).all():
            raise ValueError(f"{name} must be finite")
    normals = np.ascontiguousarray(_check_unit(normals, "normal").T)

    env = init if init is not None else default_envmap()
    if len(env) == 0:
        raise ValueError("init envmap needs at least one lobe")
    axes = env.axes.copy()
    sharp = env.sharpnesses.copy()
    amps = env.amplitudes.copy()

    d, q, cols, trial_d, trial_q, trial_cols, scratch, w = np.empty((8, len(env), len(target)))
    ws, trial_ws = (d, q, cols, scratch), (trial_d, trial_q, trial_cols, scratch)
    light = amps @ _lobe_columns(axes, sharp, normals, ws)
    loss = _shading_loss(light, albedo, target)
    history = [loss]
    step = _FIT_STEP_SIZE
    fail_streak = 0
    for _ in range(iterations):
        g_amp, g_axes, g_logsharp = _fit_gradients(
            axes, sharp, amps, normals, albedo, target, light, ws, w
        )
        accepted = False
        trial = step
        for _ in range(25):
            new_amps = np.maximum(amps - trial * g_amp, 0.0)
            # Sharpness moves in log space: the (sharpness, amplitude)
            # trade-off is badly scaled for additive steps.
            new_sharp = np.clip(sharp * np.exp(-trial * g_logsharp), 1e-3, 1e4)
            new_axes = axes - trial * g_axes
            new_axes /= np.linalg.norm(new_axes, axis=1, keepdims=True)
            new_light = new_amps @ _lobe_columns(new_axes, new_sharp, normals, trial_ws)
            new_loss = _shading_loss(new_light, albedo, target)
            if new_loss <= loss:
                axes, sharp, amps, light, loss = new_axes, new_sharp, new_amps, new_light, new_loss
                ws, trial_ws = trial_ws, ws
                step = min(trial * 1.5, 10.0 * _FIT_STEP_SIZE)
                accepted = True
                break
            trial *= 0.5
        if accepted:
            fail_streak = 0
        else:
            fail_streak += 1
            if fail_streak >= _FIT_MAX_FAIL_STREAK:
                raise EnvmapFitError(
                    f"no descent step found for {fail_streak} consecutive iterations"
                )
        history.append(loss)
    fitted = Envmap(
        tuple(
            SphericalGaussian(ax, float(s), float(a))
            for ax, s, a in zip(axes, sharp, amps)
        )
    )
    if return_history:
        return fitted, np.asarray(history)
    return fitted
