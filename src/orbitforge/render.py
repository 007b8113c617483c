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
adjoint a single basis contraction.

The ray march itself lives in the NumPy kernel ``_render_np``: the
forward pass marches once and ``render_backward`` reads that march from
the ``RenderCache``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _render_np
from .grid import ImageBundle, SceneGrid, node_gradient
from .orbits import camera_matrix
from .sg import irradiance_basis

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
        self.amplitudes = np.asarray(amplitudes, dtype=np.float64)
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
    d_world /= np.linalg.norm(d_world, axis=-1, keepdims=True)
    return np.asarray(camera.position), d_world


def intersect_unit_cube(origin, dirs):
    """Slab test against [-0.5, 0.5]^3; entry clamped to the camera."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = (-0.5 - origin) / dirs
        hi = (0.5 - origin) / dirs
    near = np.where(np.isnan(lo), -np.inf, np.minimum(lo, hi))
    far = np.where(np.isnan(hi), np.inf, np.maximum(lo, hi))
    parallel_outside = (np.abs(dirs) < 1e-15) & (np.abs(origin)[None, None, :] > 0.5)
    near = np.where(parallel_outside, np.inf, near)
    t0 = np.max(near, axis=-1)
    t1 = np.min(far, axis=-1)
    t0 = np.maximum(t0, 0.0)
    hit = t1 > t0
    return t0, t1, hit


@dataclass
class RenderCache:
    """What ``render_backward`` reads: the inputs it differentiates and the forward march.

    ``march`` holds the per-sample tensors of the hit rays, whose flat pixel
    indices are ``ridx``; ``mask``, ``depth_acc`` and ``illum_acc`` are the
    un-normalized weight sums per pixel.
    """

    grid: SceneGrid
    light: LightTable
    background: np.ndarray
    ridx: np.ndarray
    march: _render_np._March
    mask: np.ndarray
    depth_acc: np.ndarray
    illum_acc: np.ndarray


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
    stop-gradient semantics for finite-difference checks.

    A density grid rendered for its bundle alone (neither ``want_cache`` nor
    ``want_sample_normals``) gathers only the samples in cells with a nonzero
    corner density, unless those are most of the samples.  This is exact:
    every other sample would get density 0, so opacity and compositing
    weight 0, and its albedo and light terms multiply that 0.  Backward
    needs those samples (their field gradient is not 0), and an SDF's
    density is never 0, so both march every sample.
    """
    if samples_per_ray < 2:
        raise ValueError("samples_per_ray must be >= 2")
    origin, dirs = camera_rays(camera)
    t0, t1, hit = intersect_unit_cube(origin, dirs)
    sample_shape = hit.shape + (samples_per_ray, 3)
    if normals_override is not None and np.shape(normals_override) != sample_shape:
        raise ValueError(f"normals_override must have shape {sample_shape}")
    ridx = np.flatnonzero(hit)
    grad_sign = 1.0 if grid.kind == "sdf" else -1.0
    skip_empty = grid.kind == "density" and not (want_cache or want_sample_normals)
    background = np.asarray(background, dtype=np.float64)
    frozen = (
        None if normals_override is None
        else np.asarray(normals_override).reshape(-1, samples_per_ray, 3)[ridx]
    )
    march, *sums = _render_np.forward(
        background, grid, light.values, origin, dirs.reshape(-1, 3)[ridx], t0.ravel()[ridx],
        t1.ravel()[ridx], ridx, samples_per_ray, jitter_seed, skip_empty,
        lambda: node_gradient(grid.field, grid.spacing), grad_sign, frozen,
    )
    rgb, mask, depth_acc, illum_acc = (
        _render_np._place(hit.shape, ridx, rays, fill)
        for rays, fill in zip(sums, (background, 0.0, 0.0, 0.0))
    )
    valid = mask >= ImageBundle.VALID_MASK
    depth = np.full(mask.shape, np.inf)
    depth[valid] = depth_acc[valid] / mask[valid]
    illum = np.zeros(mask.shape)
    illum[valid] = illum_acc[valid] / mask[valid]
    normal = np.zeros(dirs.shape)
    pts = origin[None, :] + depth[valid, None] * dirs[valid]
    gvec = _render_np._interp_gradient(grid.field, grid.spacing, pts)
    normal[valid] = _render_np._unit_normals(gvec, grad_sign)
    bundle = ImageBundle(rgb=rgb, depth=depth, mask=mask, normal=normal, illum=illum)
    out = [bundle]
    if want_cache:
        out.append(RenderCache(grid, light, background, ridx, march, mask, depth_acc, illum_acc))
    if want_sample_normals:
        out.append(_render_np._place(hit.shape, ridx, march.normals, 0.0))
    return tuple(out) if len(out) > 1 else bundle


def render_backward(cache, g_rgb, g_mask=None, g_depth=None, g_illum=None):
    """Gradients of the rendered buffers with respect to grid parameters.

    Upstream gradients are given on the bundle's rgb / mask / depth /
    illum buffers; depth and illum chains are folded through their
    mask normalization.  Pixels whose depth is the +inf miss sentinel
    must carry zero upstream depth gradient.
    """
    shape = cache.mask.shape
    g_rgb = np.asarray(g_rgb, dtype=np.float64)
    if g_rgb.shape != shape + (3,):
        raise ValueError(f"g_rgb must have shape {shape + (3,)}")
    zeros = np.zeros(shape)
    g_mask = zeros if g_mask is None else np.asarray(g_mask, dtype=np.float64)
    g_depth = zeros if g_depth is None else np.asarray(g_depth, dtype=np.float64)
    g_illum = zeros if g_illum is None else np.asarray(g_illum, dtype=np.float64)
    valid = cache.mask >= ImageBundle.VALID_MASK
    m = np.where(valid, cache.mask, 1.0)
    g_w_t = np.where(valid, g_depth / m, 0.0)
    g_w_light = np.where(valid, g_illum / m, 0.0)
    g_w_const = g_mask + np.where(
        valid,
        -(g_depth * cache.depth_acc + g_illum * cache.illum_acc) / (m * m),
        0.0,
    )
    g_field, g_albedo, g_table = _render_np.backward(
        cache, g_rgb, g_w_const, g_w_t, g_w_light
    )
    return RenderGrads(
        field=g_field,
        albedo=g_albedo,
        light_table=g_table,
        light_amplitudes=cache.light.amplitude_grads(g_table),
    )
