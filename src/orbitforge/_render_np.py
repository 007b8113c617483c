"""The NumPy render kernel behind ``render`` and ``render_backward``.

Vectorized over rays and samples.  ``forward`` and ``backward`` take a
``render.RenderCache`` and replay one march (``_march``) from it: samples
sit at a fixed per-pixel hash jitter, so both passes see the same samples
and the output is bitwise reproducible for a given ``jitter_seed``.
``_interp`` is the package's trilinear gather and ``_scatter`` its adjoint.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import sdf_to_density

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / 9007199254740992.0


def hash01(pixel, sample, seed):
    """Deterministic stratification jitter in [0, 1) from integer keys."""
    pixel = np.asarray(pixel, dtype=np.uint64)
    sample = np.asarray(sample, dtype=np.uint64)
    # A 0-d array multiplies with uint64 wraparound; a NumPy scalar product
    # would give the same bits but warn on overflow.
    h = pixel * _C1 + sample * _C2 + np.asarray(seed, dtype=np.uint64) * _C3
    h ^= h >> np.uint64(30)
    h *= _C2
    h ^= h >> np.uint64(27)
    h *= _C3
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) * _INV53


def _corners(points, n):
    """Flat node index and trilinear weight of the 8 lattice corners around each point.

    Points are world positions in the cube [-0.5, 0.5]^3 spanned by the
    n^3 nodes; points outside it clamp to the boundary.
    """
    g = np.clip((points + 0.5) * (n - 1), 0.0, n - 1 - 1e-9)
    i0 = np.floor(g).astype(np.int64)
    f = g - i0
    x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    for dx, wx in ((0, 1 - fx), (1, fx)):
        for dy, wy in ((0, 1 - fy), (1, fy)):
            for dz, wz in ((0, 1 - fz), (1, fz)):
                yield ((x0 + dx) * n + (y0 + dy)) * n + (z0 + dz), wx * wy * wz


def _interp(values, points):
    """Trilinear interpolation of (n, n, n[, c]) node values at (..., 3) world points."""
    n = values.shape[0]
    flat = values.reshape((n ** 3,) + values.shape[3:])
    out = 0.0
    for idx, w in _corners(points, n):
        out = out + np.take(flat, idx, axis=0) * (w if values.ndim == 3 else w[..., None])
    return out


def _scatter(grads, points, n):
    """Adjoint of ``_interp``: accumulate (m[, c]) values at (m, 3) points onto n^3 nodes."""
    grads = np.asarray(grads, dtype=np.float64)
    cols = grads.reshape(len(grads), -1)
    out = np.zeros((n ** 3, cols.shape[1]))
    for idx, w in _corners(points, n):
        for c in range(cols.shape[1]):
            out[:, c] += np.bincount(idx, weights=cols[:, c] * w, minlength=n ** 3)
    return out.reshape((n, n, n) + grads.shape[1:])


def _unit_normals(gvec, sign):
    """Signed unit normals from field gradients; +z where the gradient vanishes."""
    norms = np.linalg.norm(gvec, axis=-1)
    normals = sign * gvec / np.maximum(norms, 1e-20)[..., None]
    normals[norms < 1e-12] = (0.0, 0.0, 1.0)
    return normals


def _table_coords(ltable_shape, normals):
    nt, nph = ltable_shape
    nz = np.clip(normals[..., 2], -1.0, 1.0)
    theta = np.arccos(nz)
    phi = np.mod(np.arctan2(normals[..., 1], normals[..., 0]), 2.0 * np.pi)
    r = np.clip(theta / np.pi * nt - 0.5, 0.0, nt - 1.0)
    c = phi / (2.0 * np.pi) * nph - 0.5
    r0 = np.floor(r).astype(np.int64)
    r1 = np.minimum(r0 + 1, nt - 1)
    fr = r - r0
    cf = np.floor(c)
    c0 = np.mod(cf.astype(np.int64), nph)
    c1 = np.mod(c0 + 1, nph)
    fc = c - cf
    return r0, r1, fr, c0, c1, fc


def table_lookup(ltable, normals):
    """Bilinear lat-long lookup of irradiance for unit directions."""
    r0, r1, fr, c0, c1, fc = _table_coords(ltable.shape, normals)
    return (
        ltable[r0, c0] * (1 - fr) * (1 - fc)
        + ltable[r0, c1] * (1 - fr) * fc
        + ltable[r1, c0] * fr * (1 - fc)
        + ltable[r1, c1] * fr * fc
    )


def table_scatter(shape, normals, weights):
    """Adjoint of table_lookup: accumulate weights into the 4 bins."""
    nt, nph = shape
    r0, r1, fr, c0, c1, fc = _table_coords(shape, normals)
    out = np.zeros(nt * nph)
    w = np.asarray(weights, dtype=np.float64)
    for rr, cc, ww in (
        (r0, c0, (1 - fr) * (1 - fc)),
        (r0, c1, (1 - fr) * fc),
        (r1, c0, fr * (1 - fc)),
        (r1, c1, fr * fc),
    ):
        out += np.bincount(
            (rr * nph + cc).ravel(), weights=(w * ww).ravel(), minlength=nt * nph
        )
    return out.reshape(nt, nph)


def _sample_points(origin, dirs_flat, pix_flat, t0, t1, n_samples, jitter_seed):
    dt = (t1 - t0) / n_samples
    j = np.arange(n_samples, dtype=np.uint64)[None, :]
    xi = hash01(pix_flat[:, None].astype(np.uint64), j, jitter_seed)
    t = t0[:, None] + (np.arange(n_samples)[None, :] + xi) * dt[:, None]
    pos = origin[None, None, :] + t[:, :, None] * dirs_flat[:, None, :]
    return t, dt, pos


class _March(NamedTuple):
    """Per-sample state of the hit rays, shaped (rays, samples[, 3])."""

    t: np.ndarray  # distance along the ray
    dt: np.ndarray  # (rays,) sample spacing
    pos: np.ndarray
    dens: np.ndarray
    alb: np.ndarray
    normals: np.ndarray
    a: np.ndarray  # opacity
    trans: np.ndarray  # transmittance after the sample
    t_exc: np.ndarray  # transmittance before the sample
    w: np.ndarray  # compositing weight
    light: np.ndarray  # irradiance at the shading normal


def _march(cache, ridx):
    """Sample the hit rays ``ridx`` of ``cache`` and composite their opacities."""
    grid = cache.grid
    n_samples = cache.n_samples
    t, dt, pos = _sample_points(
        cache.origin, cache.dirs.reshape(-1, 3)[ridx], ridx,
        cache.t0.ravel()[ridx], cache.t1.ravel()[ridx], n_samples, cache.jitter_seed,
    )
    flat = pos.reshape(-1, 3)
    shape = pos.shape[:2]
    f = _interp(grid.field, flat)
    dens = sdf_to_density(f, grid.sdf_alpha, grid.sdf_beta) if grid.kind == "sdf" else f
    dens = dens.reshape(shape)
    alb = _interp(grid.albedo, flat).reshape(shape + (3,))
    if cache.normals_override is None:
        gvec = _interp(cache.grad_nodes, flat)
        normals = _unit_normals(gvec, cache.grad_sign).reshape(shape + (3,))
    else:
        normals = cache.normals_override.reshape(-1, n_samples, 3)[ridx]
    a = -np.expm1(-dens * dt[:, None])
    trans = np.cumprod(1.0 - a, axis=1)
    t_exc = np.concatenate([np.ones((a.shape[0], 1)), trans[:, :-1]], axis=1)
    w = t_exc * a
    light = table_lookup(cache.light.values, normals)
    return _March(t, dt, pos, dens, alb, normals, a, trans, t_exc, w, light)


def forward(cache, want_sample_normals=False):
    """Composite the rays of ``cache``.

    Returns (rgb, mask, depth_acc, illum_acc, sample_normals): the weight
    sums of depth and irradiance are not yet divided by the mask, and
    ``sample_normals`` is None unless asked for.
    """
    height, width = cache.dirs.shape[:2]
    n_samples = cache.n_samples
    rgb = np.tile(cache.background, (height, width, 1))
    mask = np.zeros((height, width))
    depth_acc = np.zeros((height, width))
    illum_acc = np.zeros((height, width))
    sample_normals = (
        np.zeros((height, width, n_samples, 3)) if want_sample_normals else None
    )
    ridx = np.flatnonzero(cache.hit.ravel())
    if ridx.size == 0:
        return rgb, mask, depth_acc, illum_acc, sample_normals
    m = _march(cache, ridx)
    rgb_rays = np.einsum("rs,rsc->rc", m.w * m.light, m.alb)
    rgb_rays += m.trans[:, -1:] * cache.background[None, :]
    rgb.reshape(-1, 3)[ridx] = rgb_rays
    mask.ravel()[ridx] = m.w.sum(axis=1)
    depth_acc.ravel()[ridx] = (m.w * m.t).sum(axis=1)
    illum_acc.ravel()[ridx] = (m.w * m.light).sum(axis=1)
    if want_sample_normals:
        sample_normals.reshape(-1, n_samples, 3)[ridx] = m.normals
    return rgb, mask, depth_acc, illum_acc, sample_normals


def backward(cache, g_rgb, g_w_const, g_w_t, g_w_light):
    """Reverse-mode derivatives of the compositing chain.

    Returns the gradients of the field, the albedo and the light table.
    Per-sample upstream on the accumulation weight w_j is
    dot(g_rgb, albedo_j) * L_j + g_w_const + g_w_t * t_j + g_w_light * L_j;
    the final-transmittance background term is handled via the suffix sum.
    Shading normals are treated as constants (stop-gradient), so no
    derivative flows through ``grad_nodes``.
    """
    grid = cache.grid
    n = grid.resolution
    ridx = np.flatnonzero(cache.hit.ravel())
    if ridx.size == 0:
        g_table = np.zeros(cache.light.values.shape)
        return np.zeros((n, n, n)), np.zeros((n, n, n, 3)), g_table
    m = _march(cache, ridx)

    grgb = g_rgb.reshape(-1, 3)[ridx]
    gwc = g_w_const.ravel()[ridx]
    gwt = g_w_t.ravel()[ridx]
    gwl = g_w_light.ravel()[ridx]

    grgb_dot_alb = np.einsum("rc,rsc->rs", grgb, m.alb)
    g_per_w = (
        grgb_dot_alb * m.light + gwc[:, None] + gwt[:, None] * m.t + gwl[:, None] * m.light
    )
    bgdot = grgb @ cache.background
    # Suffix sums: S_k = sum_{j>k} G_j w_j + bgdot * T_final.
    gw = g_per_w * m.w
    suffix = np.cumsum(gw[:, ::-1], axis=1)[:, ::-1]
    suffix = np.concatenate([suffix[:, 1:], np.zeros((gw.shape[0], 1))], axis=1)
    suffix += (bgdot * m.trans[:, -1])[:, None]
    d_dens = m.dt[:, None] * ((1.0 - m.a) * g_per_w * m.t_exc - suffix)
    if grid.kind == "sdf":
        sig = m.dens / grid.sdf_alpha
        d_dens = d_dens * (-(grid.sdf_alpha / grid.sdf_beta) * sig * (1.0 - sig))

    flat_pos = m.pos.reshape(-1, 3)
    g_field = _scatter(d_dens.ravel(), flat_pos, n)
    g_alb_samples = (m.w * m.light)[:, :, None] * grgb[:, None, :]
    g_albedo = _scatter(g_alb_samples.reshape(-1, 3), flat_pos, n)
    g_light_samples = m.w * (grgb_dot_alb + gwl[:, None])
    g_table = table_scatter(cache.light.values.shape, m.normals, g_light_samples)
    return g_field, g_albedo, g_table
