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

The ray march itself lives in the NumPy kernel ``_render_np``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _render_np
from .grid import ImageBundle, SceneGrid, node_gradient
from .orbits import Camera, camera_matrix
from .sg import Envmap, irradiance_basis

__all__ = [
    "LightTable",
    "RenderCache",
    "RenderGrads",
    "render",
    "render_backward",
    "surface_points_and_normals",
    "camera_rays",
    "intersect_unit_cube",
]

class LightTable:
    """Lat-long irradiance lookup with an amplitude-linear basis.

    Entries are exact spherical-Gaussian irradiance values at cell-center
    directions; lookups interpolate bilinearly (wrap in azimuth, clamp at
    the poles).
    """

    def __init__(self, envmap, n_theta=64, n_phi=128):
        self.envmap = envmap
        self.n_theta = n_theta
        self.n_phi = n_phi
        theta = (np.arange(n_theta) + 0.5) * np.pi / n_theta
        phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        dirs = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
        if len(envmap) == 0:
            self.basis = np.zeros((n_theta * n_phi, 0))
        else:
            self.basis = irradiance_basis(envmap, dirs)
        self.values = np.zeros((n_theta, n_phi))
        self.set_amplitudes(envmap.amplitudes if len(envmap) else np.zeros(0))

    def set_amplitudes(self, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=np.float64)
        self.amplitudes = amplitudes
        if self.basis.shape[1]:
            self.values = np.ascontiguousarray(
                (self.basis @ amplitudes).reshape(self.n_theta, self.n_phi)
            )
        else:
            self.values = np.zeros((self.n_theta, self.n_phi))

    def lookup(self, normals):
        return _render_np.table_lookup(self.values, np.asarray(normals, dtype=np.float64))

    def amplitude_grads(self, g_table):
        """Chain a per-bin gradient through the amplitude-linear basis."""
        if not self.basis.shape[1]:
            return np.zeros(0)
        return self.basis.T @ np.asarray(g_table, dtype=np.float64).ravel()

    @classmethod
    def constant(cls, value=1.0, n_theta=4, n_phi=8):
        table = cls(Envmap(()), n_theta, n_phi)
        table.values = np.full((n_theta, n_phi), float(value))
        return table


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
    return np.asarray(camera.position), np.ascontiguousarray(d_world)


def intersect_unit_cube(origin, dirs):
    """Slab test against [-0.5, 0.5]^3; entry clamped to the camera."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
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
    return np.ascontiguousarray(t0), np.ascontiguousarray(t1), np.ascontiguousarray(hit)


@dataclass
class RenderCache:
    """Inputs replayed by the backward pass (samples are recomputed)."""

    grid: SceneGrid
    camera: Camera
    light: LightTable
    origin: np.ndarray
    dirs: np.ndarray
    hit: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    n_samples: int
    jitter_seed: int
    background: np.ndarray
    grad_nodes: np.ndarray
    grad_sign: float
    normals_override: Optional[np.ndarray]
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
    """Render an ImageBundle from a SceneGrid.

    ``light`` is a LightTable (or an Envmap, converted on the fly).  With
    ``want_cache`` the returned cache replays the pass for
    ``render_backward``; ``normals_override`` substitutes frozen per-sample
    shading normals, which realizes the stop-gradient semantics for
    finite-difference checks.
    """
    if samples_per_ray < 2:
        raise ValueError("samples_per_ray must be >= 2")
    if isinstance(light, Envmap):
        light = LightTable(light)
    origin, dirs = camera_rays(camera)
    t0, t1, hit = intersect_unit_cube(origin, dirs)
    grad_sign = 1.0 if grid.kind == "sdf" else -1.0
    grad_nodes = node_gradient(grid.field, grid.spacing)
    background = np.asarray(background, dtype=np.float64)
    cache = RenderCache(
        grid=grid,
        camera=camera,
        light=light,
        origin=origin,
        dirs=dirs,
        hit=hit,
        t0=t0,
        t1=t1,
        n_samples=samples_per_ray,
        jitter_seed=jitter_seed,
        background=background,
        grad_nodes=grad_nodes,
        grad_sign=grad_sign,
        normals_override=normals_override,
        mask=None,
        depth_acc=None,
        illum_acc=None,
    )
    rgb, mask, depth_acc, illum_acc, sample_normals = _render_np.forward(
        cache, want_sample_normals
    )
    cache.mask = mask
    cache.depth_acc = depth_acc
    cache.illum_acc = illum_acc
    valid = mask >= ImageBundle.VALID_MASK
    depth = np.full(mask.shape, np.inf)
    depth[valid] = depth_acc[valid] / mask[valid]
    illum = np.zeros(mask.shape)
    illum[valid] = illum_acc[valid] / mask[valid]
    normal = np.zeros(dirs.shape)
    if np.any(valid):
        pts = origin[None, :] + depth[valid, None] * dirs[valid]
        gvec = _render_np._interp(grad_nodes, pts)
        normal[valid] = _render_np._unit_normals(gvec, grad_sign)
    bundle = ImageBundle(rgb=rgb, depth=depth, mask=mask, normal=normal, illum=illum)
    out = [bundle]
    if want_cache:
        out.append(cache)
    if want_sample_normals:
        out.append(sample_normals)
    return tuple(out) if len(out) > 1 else bundle


def render_backward(cache, g_rgb, g_mask=None, g_depth=None, g_illum=None):
    """Gradients of the rendered buffers with respect to grid parameters.

    Upstream gradients are given on the bundle's rgb / mask / depth /
    illum buffers; depth and illum chains are folded through their
    mask normalization.  Pixels whose depth is the +inf miss sentinel
    must carry zero upstream depth gradient.
    """
    if cache.mask is None:
        raise ValueError("cache is missing forward results")
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


def surface_points_and_normals(grid, camera, width=None, height=None, *, samples_per_ray=64, jitter_seed=0):
    """Expected-depth surface points and field-gradient normals per hit pixel.

    Returns (points (m, 3), normals (m, 3), pixel_indices (m, 2)).
    """
    if width is not None or height is not None:
        camera = Camera(
            camera.pose,
            camera.distance,
            camera.fov_deg,
            width or camera.width,
            height or camera.height,
        )
    bundle = render(
        grid,
        camera,
        LightTable.constant(),
        samples_per_ray=samples_per_ray,
        background=(0.0, 0.0, 0.0),
        jitter_seed=jitter_seed,
    )
    valid = bundle.valid
    origin, dirs = camera_rays(camera)
    pts = origin[None, :] + bundle.depth[valid, None] * dirs[valid]
    normals = bundle.normal[valid]
    idx = np.argwhere(valid)
    return pts, normals, idx
