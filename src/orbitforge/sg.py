"""Spherical-Gaussian environment lighting.

A lobe is G(x) = a * exp(s * (mu . x - 1)) on the unit sphere with unit
axis mu, sharpness s > 0 and scalar (white light) amplitude a >= 0.
Products of two lobes integrate in closed form, which gives Lambertian
irradiance when one factor is the cosine-lobe approximation of the
clamped-cosine kernel.  A Monte-Carlo sphere integrator is included as the
independent oracle for all closed-form identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SphericalGaussian",
    "Envmap",
    "COSINE_LOBE_SHARPNESS",
    "COSINE_LOBE_AMPLITUDE",
    "sg_eval",
    "sg_inner_product",
    "cosine_lobe",
    "irradiance",
    "irradiance_many",
    "shade",
    "hsv_value",
    "illum_loss",
    "fit_envmap",
    "EnvmapFitError",
    "mc_sphere_integral",
    "fibonacci_sphere",
    "save_envmap",
    "load_envmap",
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
        return np.array([g.axis for g in self.lobes])

    @property
    def sharpnesses(self):
        return np.array([g.sharpness for g in self.lobes])

    @property
    def amplitudes(self):
        return np.array([g.amplitude for g in self.lobes])

    def with_amplitudes(self, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=np.float64)
        if amplitudes.shape != (len(self.lobes),):
            raise ValueError("amplitude count must match lobe count")
        return Envmap(
            tuple(
                SphericalGaussian(g.axis, g.sharpness, float(a))
                for g, a in zip(self.lobes, amplitudes)
            )
        )


def _check_unit(x, name="direction"):
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError(f"{name} must be unit length (tolerance 1e-6)")
    return x


def sg_eval(g, x):
    """Evaluate a lobe at unit direction(s) x."""
    x = _check_unit(x)
    return g.amplitude * np.exp(g.sharpness * (x @ g.axis - 1.0))


def _ratio_one_minus_exp(d):
    """(1 - exp(-2 d)) / d, with the analytic limit 2 at d = 0."""
    d = np.asarray(d, dtype=np.float64)
    out = np.where(d > 0.0, -np.expm1(-2.0 * np.maximum(d, 1e-300)) / np.maximum(d, 1e-300), 2.0)
    return out


def sg_inner_product(g1, g2):
    """Closed-form integral over the sphere of the product of two lobes.

    With d_m = ||s1 mu1 + s2 mu2||, the integral is
    (2 pi a1 a2 / d_m) e^{d_m - (s1 + s2)} (1 - e^{-2 d_m}); the removable
    singularity at exactly opposed equal-sharpness lobes is evaluated via
    its analytic limit.
    """
    d_m = float(np.linalg.norm(g1.sharpness * g1.axis + g2.sharpness * g2.axis))
    # Grouping the amplitude product keeps the operation exactly symmetric.
    scale = 2.0 * np.pi * (g1.amplitude * g2.amplitude)
    return float(
        scale * math.exp(d_m - (g1.sharpness + g2.sharpness)) * _ratio_one_minus_exp(d_m)
    )


def cosine_lobe(n):
    """The lobe approximating max(n . x, 0) on the sphere."""
    n = _check_unit(n, "normal")
    return SphericalGaussian(n, COSINE_LOBE_SHARPNESS, COSINE_LOBE_AMPLITUDE)


def irradiance(envmap, n):
    """Lambertian irradiance at a normal: sum of clamped lobe products / pi."""
    return float(irradiance_many(envmap, np.asarray(n, dtype=np.float64)[None, :])[0])


def irradiance_many(envmap, normals):
    """Vectorized irradiance for an (m, 3) array of unit normals."""
    normals = _check_unit(normals, "normal")
    if len(envmap) == 0:
        return np.zeros(normals.shape[0])
    basis = irradiance_basis(envmap, normals)
    return basis @ envmap.amplitudes


def _lobe_columns(axes, sharp, normals):
    v = sharp[None, :, None] * axes[None, :, :] + COSINE_LOBE_SHARPNESS * normals[:, None, :]
    d_m = np.linalg.norm(v, axis=-1)
    scale = 2.0 * np.pi * COSINE_LOBE_AMPLITUDE
    vals = scale * np.exp(d_m - (sharp[None, :] + COSINE_LOBE_SHARPNESS))
    vals *= _ratio_one_minus_exp(d_m)
    return np.maximum(vals, 0.0) / np.pi


def irradiance_basis(envmap, normals):
    """Per-unit-amplitude irradiance contribution of each lobe.

    Returns (m, n_lobes) with irradiance = basis @ amplitudes; the
    irradiance is exactly linear in the amplitudes because the clamped
    lobe products of nonnegative lobes are already nonnegative.
    """
    normals = np.asarray(normals, dtype=np.float64)
    return _lobe_columns(envmap.axes, envmap.sharpnesses, normals)


def shade(albedo, light):
    """Diffuse shading: componentwise albedo times scalar irradiance.

    Values are intentionally left unclamped; clamping happens only when
    writing 8-bit images.
    """
    albedo = np.asarray(albedo, dtype=np.float64)
    light_arr = np.asarray(light, dtype=np.float64)
    if np.any(light_arr < 0.0):
        raise ValueError("irradiance must be >= 0")
    return albedo * light_arr[..., None] if light_arr.ndim == albedo.ndim - 1 else albedo * light_arr


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
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    z = rng.uniform(-1.0, 1.0, n_samples)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    return float(4.0 * np.pi * np.mean(f(pts)))


def fibonacci_sphere(n):
    """n near-uniform directions from the golden-angle spiral."""
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


def _shading_loss(light, albedo, target):
    resid = albedo * light[:, None] - target
    return float(np.mean(resid * resid))


def fit_envmap(
    views,
    init=None,
    iterations=200,
    step_size=0.5,
    max_fail_streak=50,
    return_history=False,
):
    """Fit lobe parameters to shaded images with known normals and albedo.

    ``views`` is a sequence of (rgb, normals, albedo[, foreground]) tuples;
    buffers may be per-pixel images or flat point lists.  Amplitude
    gradients are analytic (irradiance is linear in each amplitude); axis
    and sharpness gradients use central finite differences.  Projected
    gradient descent with a backtracking line search keeps the loss
    non-increasing over accepted steps; 50 consecutive failed line
    searches abort the fit.
    """
    rgb_list, nrm_list, alb_list = [], [], []
    for view in views:
        rgb, normals, albedo = view[0], view[1], view[2]
        mask = view[3] if len(view) > 3 else None
        rgb = np.asarray(rgb, dtype=np.float64).reshape(-1, 3)
        normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
        albedo = np.asarray(albedo, dtype=np.float64).reshape(-1, 3)
        if mask is not None:
            keep = np.asarray(mask).reshape(-1).astype(bool)
            rgb, normals, albedo = rgb[keep], normals[keep], albedo[keep]
        rgb_list.append(rgb)
        nrm_list.append(normals)
        alb_list.append(albedo)
    if not rgb_list:
        raise ValueError("need at least one view")
    target = np.concatenate(rgb_list)
    normals = np.concatenate(nrm_list)
    albedo = np.concatenate(alb_list)
    if target.shape[0] == 0:
        raise ValueError("no foreground pixels to fit")

    env = init if init is not None else default_envmap()
    axes = env.axes.copy()
    sharp = env.sharpnesses.copy()
    amps = env.amplitudes.copy()
    n_lobes = axes.shape[0]

    cols = _lobe_columns(axes, sharp, normals)
    loss = _shading_loss(cols @ amps, albedo, target)
    history = [loss]
    step = float(step_size)
    fail_streak = 0
    for _ in range(iterations):
        light = cols @ amps
        resid = albedo * light[:, None] - target
        n_terms = resid.size
        # Analytic amplitude gradient: the loss is quadratic in amplitudes.
        g_amp = (2.0 / n_terms) * cols.T @ np.sum(albedo * resid, axis=1)
        # Central differences for axes and sharpness; perturbing one lobe
        # only swaps out its own basis column.
        g_axes = np.zeros_like(axes)
        g_logsharp = np.zeros_like(sharp)
        for j in range(n_lobes):
            if amps[j] == 0.0:
                continue
            base_term = cols[:, j] * amps[j]

            def _loss_with_column(col_j):
                return _shading_loss(light - base_term + col_j * amps[j], albedo, target)

            # Sharpness moves in log space: the (sharpness, amplitude)
            # trade-off is badly scaled for additive steps.
            hs = 1e-4
            cp = _lobe_columns(
                axes[j : j + 1], np.array([sharp[j] * math.exp(hs)]), normals
            )[:, 0]
            cm = _lobe_columns(
                axes[j : j + 1], np.array([sharp[j] * math.exp(-hs)]), normals
            )[:, 0]
            g_logsharp[j] = (_loss_with_column(cp) - _loss_with_column(cm)) / (2.0 * hs)
            for a in range(3):
                ha = 1e-5
                ap = axes[j].copy()
                ap[a] += ha
                ap /= np.linalg.norm(ap)
                am = axes[j].copy()
                am[a] -= ha
                am /= np.linalg.norm(am)
                cp = _lobe_columns(ap[None, :], sharp[j : j + 1], normals)[:, 0]
                cm = _lobe_columns(am[None, :], sharp[j : j + 1], normals)[:, 0]
                g_axes[j, a] = (_loss_with_column(cp) - _loss_with_column(cm)) / (2.0 * ha)

        accepted = False
        trial = step
        for _ in range(25):
            new_amps = np.maximum(amps - trial * g_amp, 0.0)
            new_sharp = np.clip(sharp * np.exp(-trial * g_logsharp), 1e-3, 1e4)
            new_axes = axes - trial * g_axes
            new_axes /= np.linalg.norm(new_axes, axis=1, keepdims=True)
            new_cols = _lobe_columns(new_axes, new_sharp, normals)
            new_loss = _shading_loss(new_cols @ new_amps, albedo, target)
            if new_loss <= loss:
                axes, sharp, amps = new_axes, new_sharp, new_amps
                cols, loss = new_cols, new_loss
                step = min(trial * 1.5, 10.0 * step_size)
                accepted = True
                break
            trial *= 0.5
        if accepted:
            fail_streak = 0
        else:
            fail_streak += 1
            if fail_streak >= max_fail_streak:
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


def save_envmap(path, envmap):
    """One lobe per line: mu_x mu_y mu_z sharpness amplitude."""
    with open(path, "w") as fh:
        for g in envmap.lobes:
            fh.write(
                f"{g.axis[0]:.9g} {g.axis[1]:.9g} {g.axis[2]:.9g} "
                f"{g.sharpness:.9g} {g.amplitude:.9g}\n"
            )


def load_envmap(path):
    lobes = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            mx, my, mz, s, a = (float(v) for v in line.split())
            lobes.append(SphericalGaussian(np.array([mx, my, mz]), s, a))
    return Envmap(tuple(lobes))
