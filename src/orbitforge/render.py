"""Differentiable volumetric rendering over voxel grids.

Forward: per-pixel rays are intersected with the unit cube, stratified
with a fixed per-pixel hash jitter, and composited front to back with
opacities 1 - exp(-density * dt).  Sample colors are albedo times the
environment irradiance evaluated at the local field-gradient normal.
Backward: exact reverse-mode derivatives of the compositing chain with
respect to the field, the albedo, and the light amplitudes; shading
normals are treated as constants (stop-gradient).

Irradiance is evaluated through a bilinear lat-long lookup table built
from the spherical-Gaussian envmap once per parameter update; the table
is exactly linear in the lobe amplitudes, which makes the amplitude
adjoint a single basis contraction.  The lookup is one sparse operator
per march and the table's gradient scatter is its transpose, as the
trilinear field and albedo gather and scatter are.

This module is the pixel layer: it maps pixels to hit rays and places,
once, the per-ray buffers and packed sample normals of the NumPy kernel
``_render_np``, which makes every decision about a ray.  The forward pass
marches once and ``render_backward`` reads that march from the ``RenderCache``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _render_np
from .grid import ImageBundle, SceneGrid
from .orbits import camera_matrix
from .sg import irradiance_basis, norm3

__all__ = [
    "LightTable",
    "RenderCache",
    "RenderGrads",
    "render",
    "render_backward",
    "camera_rays",
    "intersect_unit_cube",
]

class LightTable:
    """Lat-long irradiance lookup with an amplitude-linear basis.

    Entries are exact spherical-Gaussian irradiance values at cell-center
    directions; lookups interpolate bilinearly (wrap in azimuth, clamp at
    the poles).  An envmap without lobes gives an (n_theta * n_phi, 0)
    basis, an all-zero table and empty amplitude gradients.
    """

    def __init__(self, envmap, n_theta=64, n_phi=128):
        for name, size in (("n_theta", n_theta), ("n_phi", n_phi)):
            if not isinstance(size, (int, np.integer)) or size < 1:
                raise ValueError(f"{name} must be a positive integer")
        self.n_theta = n_theta
        self.n_phi = n_phi
        theta = (np.arange(n_theta) + 0.5) * np.pi / n_theta
        phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        dirs = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
        self.basis = irradiance_basis(envmap, dirs)
        self.set_amplitudes(envmap.amplitudes)

    def set_amplitudes(self, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=np.float64)
        if amplitudes.shape != self.basis.shape[1:]:
            raise ValueError(f"amplitudes must have shape {self.basis.shape[1:]}")
        if not np.all(np.isfinite(amplitudes)):
            raise ValueError("amplitudes must be finite")
        self.amplitudes = amplitudes
        self.values = (self.basis @ self.amplitudes).reshape(self.n_theta, self.n_phi)

    def amplitude_grads(self, g_table):
        """Chain a per-bin gradient through the amplitude-linear basis."""
        return self.basis.T @ np.asarray(g_table, dtype=np.float64).ravel()


def camera_rays(camera):
    """Unit world-space ray directions per pixel plus the camera origin."""
    ext, _ = camera_matrix(camera)
    rot = ext[:3, :3]
    f = camera.focal_px
    i = np.arange(camera.height, dtype=np.float64)
    j = np.arange(camera.width, dtype=np.float64)
    jj, ii = np.meshgrid(j, i)
    x = (jj + 0.5 - camera.width / 2.0) / f
    y = (ii + 0.5 - camera.height / 2.0) / f
    d_cam = np.stack([x, y, np.ones_like(x)], axis=-1)
    d_world = d_cam @ rot  # rows of rot are camera axes, so this is R^T d
    d_world /= norm3(d_world)[..., None]
    return np.asarray(camera.position), d_world


def intersect_unit_cube(origin, dirs):
    """Slab test against [-0.5, 0.5]^3; entry clamped to the camera.

    ``dirs`` is one (3,) direction or an array of them, (..., 3); ``t0``, ``t1``
    and ``hit`` have its shape without the last axis.
    """
    # A zero or subnormal direction component gives an infinite slab distance.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = (-0.5 - origin) / dirs
        hi = (0.5 - origin) / dirs
    near = np.where(np.isnan(lo), -np.inf, np.minimum(lo, hi))
    far = np.where(np.isnan(hi), np.inf, np.maximum(lo, hi))
    parallel_outside = (np.abs(dirs) < 1e-15) & (np.abs(origin) > 0.5)
    near = np.where(parallel_outside, np.inf, near)
    # Chained over the axes: exact, NaN-propagating and faster than a reduction over three.
    t0 = np.maximum(np.maximum(near[..., 0], near[..., 1]), near[..., 2])
    t1 = np.minimum(np.minimum(far[..., 0], far[..., 1]), far[..., 2])
    t0 = np.maximum(t0, 0.0)
    hit = t1 > t0
    return t0, t1, hit


@dataclass
class RenderCache:
    """What ``render_backward`` reads: the inputs it differentiates and the forward march.

    ``march`` holds the samples the kernel gathered on the marched rays, whose
    flat pixel indices into the (height, width) image ``shape`` are ``ridx``:
    all of them for a density grid and the ones not provably negligible for
    an SDF grid, one row each, with their trilinear and bilinear operators,
    whose transposes ``render_backward`` scatters through.  It holds no
    shading normals, which the backward pass treats as constants.
    """

    grid: SceneGrid
    light: LightTable
    background: np.ndarray
    shape: tuple
    ridx: np.ndarray
    march: _render_np._March


@dataclass
class RenderGrads:
    """Parameter gradients produced by render_backward."""

    field: np.ndarray
    albedo: np.ndarray
    light_table: np.ndarray
    light_amplitudes: np.ndarray


def render(
    grid,
    camera,
    light,
    *,
    samples_per_ray=64,
    background=(1.0, 1.0, 1.0),
    jitter_seed=0,
    normals_override=None,
    want_cache=False,
    want_sample_normals=False,
):
    """Render an ImageBundle from a SceneGrid lit by a LightTable.

    With ``want_cache`` the returned cache holds the forward march for
    ``render_backward``; ``normals_override`` substitutes frozen
    (height, width, samples_per_ray, 3) shading normals, which realizes the
    stop-gradient semantics for finite-difference checks.  With
    ``want_sample_normals`` the (height, width, samples_per_ray, 3) shading
    normals of the march are returned too, ``normals_override``'s or else the
    field's, zero at the samples the march did not gather.  Either of the two
    keeps the march, which makes a density grid's march place and gather
    every sample; without them a density render marches only the rays
    that meet the box of its occupied cells, on the strata that may reach it,
    gathers only the samples of occupied cells, and renders the other rays as
    misses, with the same bits.  An SDF grid's march, kept or not, drops the
    samples whose contributions are provably below ``_render_np._EPS``; the
    module docstring of ``_render_np`` bounds what that moves.  Shading
    normals are the field gradient at the gathered samples, from their corner
    nodes or from the full grid, whichever their count makes cheaper, with the
    same bits either way.
    ``jitter_seed``, an integer in [0, 2**64), keys the per-pixel sample jitter.
    """
    if not isinstance(samples_per_ray, (int, np.integer)) or samples_per_ray < 2:
        raise ValueError("samples_per_ray must be an integer >= 2")
    if not isinstance(jitter_seed, (int, np.integer)) or not 0 <= jitter_seed < 2 ** 64:
        raise ValueError("jitter_seed must be an integer in [0, 2**64)")
    background = np.asarray(background, dtype=np.float64)
    if background.shape != (3,) or not np.all(np.isfinite(background)):
        raise ValueError("background must be a finite 3-vector")
    origin, dirs = camera_rays(camera)
    t0, t1, hit = intersect_unit_cube(origin, dirs)
    sample_shape = hit.shape + (samples_per_ray, 3)
    if normals_override is not None:
        normals_override = np.asarray(normals_override, dtype=np.float64)
        if normals_override.shape != sample_shape:
            raise ValueError(f"normals_override must have shape {sample_shape}")
        if not np.all(np.isfinite(normals_override)):
            raise ValueError("normals_override must be finite")
    ridx = np.flatnonzero(hit)
    march, sample_normals, pix, *rays = _render_np.forward(
        grid, light.values, background,
        origin=origin, dirs=dirs.reshape(-1, 3)[ridx], t0=t0.ravel()[ridx], t1=t1.ravel()[ridx],
        pix=ridx, n_samples=samples_per_ray, jitter_seed=jitter_seed, normals=normals_override,
        keep_march=want_cache or want_sample_normals,
    )
    rgb, mask, depth, normal, illum = _render_np._place_rays(hit.shape, pix, rays, background)
    bundle = ImageBundle(rgb=rgb, depth=depth, mask=mask, normal=normal, illum=illum)
    out = [bundle]
    if want_cache:
        out.append(RenderCache(grid, light, background, hit.shape, pix, march))
    if want_sample_normals:
        rows, j = np.divmod(march.keep, samples_per_ray)
        out.append(_render_np._place(sample_shape[:-1], pix[rows] * samples_per_ray + j,
                                     sample_normals, 0.0))
    return tuple(out) if len(out) > 1 else bundle


def render_backward(cache, g_rgb, g_mask=None, g_depth=None, g_illum=None):
    """Gradients of the rendered buffers with respect to grid parameters.

    Upstream gradients are given on the bundle's rgb / mask / depth /
    illum buffers; the kernel's ``backward`` folds the depth and illum
    chains through their mask normalization.  Pixels whose depth is the
    +inf miss sentinel must carry zero upstream depth gradient.  ``g_rgb``
    is (height, width, 3); each of the others is None, meaning zero, or
    (height, width).
    """
    shape = cache.shape

    def upstream(name, g, expected):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != expected:
            raise ValueError(f"{name} must have shape {expected}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"{name} must be finite")
        return g

    g_rgb = upstream("g_rgb", g_rgb, shape + (3,))
    g_mask, g_depth, g_illum = (
        np.zeros(shape) if g is None else upstream(name, g, shape)
        for name, g in (("g_mask", g_mask), ("g_depth", g_depth), ("g_illum", g_illum))
    )
    g_field, g_albedo, g_table = _render_np.backward(cache, g_rgb, g_mask, g_depth, g_illum)
    return RenderGrads(
        field=g_field,
        albedo=g_albedo,
        light_table=g_table,
        light_amplitudes=cache.light.amplitude_grads(g_table),
    )
