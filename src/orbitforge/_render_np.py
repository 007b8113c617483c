"""The NumPy render kernel behind ``render`` and ``render_backward``.

Vectorized over rays and samples.  ``forward`` marches the hit rays once
(``_march``) and returns that march with its per-ray sums; ``render`` keeps
it on the ``render.RenderCache`` and ``backward`` reads it from there, so a
forward+backward step marches once.  No hit rays means zero-length arrays.
Samples sit at a fixed per-pixel hash jitter, so the output is bitwise
reproducible for a given ``jitter_seed``.
``_interp`` is the package's trilinear gather and ``_scatter`` its adjoint.

A forward-only render of a density grid skips empty space exactly: it
gathers field, albedo and normals, and looks up the light, only at samples
whose cell has a nonzero corner (``_occupied_samples``), and takes those normals
from the gathered corners (``_interp_gradient``) instead of a full-grid
gradient.  Every other sample would interpolate density 0, so its opacity
and weight are exactly 0 and its albedo and light terms multiply 0; the
composited buffers keep their bits.  Backward needs those samples, since
their field gradient is not 0, and an SDF's density never reaches 0, so
the training path and SDF grids march every sample.  So does a density
render whose occupied samples are more than ``_SKIP_MAX_SHARE`` of them
(a smooth density has no exact zeros), where picking them costs more than
it saves.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grid import sdf_to_density

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / 9007199254740992.0
# Above this share of occupied samples a forward-only density render gathers
# every sample: on 64^3 and 128^3 density spheres, 64x64 views with 64 samples
# per ray, picking the occupied ones was slower from a share of 0.6-0.85 up.
_SKIP_MAX_SHARE = 0.5


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


def _cells(points, n):
    """Lattice cell (its lowest node's (..., 3) index) and offset in it of each point.

    Points are world positions in the cube [-0.5, 0.5]^3 spanned by the
    n^3 nodes; points outside it clamp to the boundary.
    """
    g = np.clip((points + 0.5) * (n - 1), 0.0, n - 1 - 1e-9)
    i0 = np.floor(g).astype(np.int64)
    return i0, g - i0


def _corners(points, n):
    """Flat node index and trilinear weight of the 8 lattice corners around each point."""
    i0, f = _cells(points, n)
    x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    for dx, wx in ((0, 1 - fx), (1, fx)):
        for dy, wy in ((0, 1 - fy), (1, fy)):
            for dz, wz in ((0, 1 - fz), (1, fz)):
                yield ((x0 + dx) * n + (y0 + dy)) * n + (z0 + dz), wx * wy * wz


def _interp(values, points, corners=None):
    """Trilinear interpolation of (n, n, n[, c]) node values at (..., 3) world points.

    ``corners`` is ``list(_corners(points, n))`` when the caller gathers
    several node arrays at the same points and builds it once.
    """
    n = values.shape[0]
    flat = values.reshape((n ** 3,) + values.shape[3:])
    out = 0.0
    for idx, w in _corners(points, n) if corners is None else corners:
        out = out + np.take(flat, idx, axis=0) * (w if values.ndim == 3 else w[..., None])
    return out


def _interp_gradient(field, spacing, points, corners=None):
    """``_interp(node_gradient(field, spacing), points)`` from the gathered corners alone.

    Each corner's gradient is computed with ``np.gradient``'s arithmetic:
    (f[i+1] - f[i-1]) / (2.0*h) inside the grid and one-sided differences
    divided by h on its faces, so the result is bitwise the full-grid one.
    ``corners`` is as for ``_interp``.
    """
    n = field.shape[0]
    flat = field.reshape(-1)
    out = 0.0
    for idx, w in _corners(points, n) if corners is None else corners:
        gvec = np.empty(idx.shape + (3,))
        for axis, stride in enumerate((n * n, n, 1)):
            i = idx // stride % n
            up = np.where(i < n - 1, idx + stride, idx)
            down = np.where(i > 0, idx - stride, idx)
            h = np.where((i > 0) & (i < n - 1), 2.0 * spacing, spacing)
            gvec[..., axis] = (flat[up] - flat[down]) / h
        out = out + gvec * w[..., None]
    return out


def _occupancy(nonzero):
    """(n-1)^3 cell mask from an n^3 node mask: True where any of the cell's 8 corners is."""
    occ = nonzero[1:] | nonzero[:-1]
    occ = occ[:, 1:] | occ[:, :-1]
    return occ[:, :, 1:] | occ[:, :, :-1]


def _occupied_samples(field, points):
    """Flat indices of the points that fall in a cell with a nonzero corner.

    None when they are more than ``_SKIP_MAX_SHARE`` of the points: gathering
    every point is then faster than picking and gathering the occupied ones.
    """
    nonzero = field != 0.0
    if nonzero.all():
        return None  # every cell is occupied
    m = field.shape[0] - 1
    cell, _ = _cells(points, m + 1)
    occupied = _occupancy(nonzero).reshape(-1)[(cell[:, 0] * m + cell[:, 1]) * m + cell[:, 2]]
    if np.count_nonzero(occupied) > _SKIP_MAX_SHARE * points.shape[0]:
        return None
    return np.flatnonzero(occupied)


def _scatter(grads, points, n):
    """Adjoint of ``_interp``: accumulate (m[, c]) values at (m, 3) points onto n^3 nodes."""
    grads = np.asarray(grads, dtype=np.float64)
    cols = grads.reshape(len(grads), math.prod(grads.shape[1:]))
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


def _place(shape, idx, values, fill):
    """An array of ``shape`` holding ``fill``, with ``values`` rows at flat positions ``idx``."""
    out = np.full(shape + values.shape[1:], fill)
    out.reshape((-1,) + values.shape[1:])[idx] = values
    return out


def _march(grid, ltable, origin, dirs, t0, t1, pix, n_samples, jitter_seed,
           skip_empty, grad_nodes, grad_sign, normals):
    """Sample the hit rays and composite their opacities.

    ``dirs``, ``t0``, ``t1`` and the flat pixel indices ``pix`` describe the
    hit rays only.  ``normals`` are their frozen (rays, samples, 3) shading
    normals, or None to take them from the node gradients that the
    zero-argument ``grad_nodes`` returns, with ``grad_sign``.  With
    ``skip_empty`` (a forward-only density render) only the samples of
    occupied cells are gathered, their normals from the corner nodes alone,
    unless they are most of the samples (``_occupied_samples``); the others
    keep density, albedo, normal and light 0, which leaves the composited
    sums bitwise unchanged (module docstring).
    """
    t, dt, pos = _sample_points(origin, dirs, pix, t0, t1, n_samples, jitter_seed)
    shape = pos.shape[:2]
    flat = pos.reshape(-1, 3)
    keep = _occupied_samples(grid.field, flat) if skip_empty else None
    # Before the corner table, so that node_gradient's temporaries do not add to it.
    nodes = grad_nodes() if normals is None and keep is None else None

    def pick(rows):
        return rows if keep is None else rows[keep]

    def full(rows):
        if keep is None:
            return rows.reshape(shape + rows.shape[1:])
        return _place(shape, keep, rows, 0.0)

    pts = pick(flat)
    corners = list(_corners(pts, grid.resolution))
    f = _interp(grid.field, pts, corners)
    dens = full(sdf_to_density(f, grid.sdf_alpha, grid.sdf_beta) if grid.kind == "sdf" else f)
    alb = full(_interp(grid.albedo, pts, corners))
    if normals is None:
        gvec = (_interp(nodes, pts, corners) if keep is None
                else _interp_gradient(grid.field, grid.spacing, pts, corners))
        shading = _unit_normals(gvec, grad_sign)
        normals = full(shading)
    else:
        shading = pick(normals.reshape(-1, 3))
    # The corner table is 16 arrays of the sample count; free it before compositing.
    del corners
    a = -np.expm1(-dens * dt[:, None])
    trans = np.cumprod(1.0 - a, axis=1)
    t_exc = np.concatenate([np.ones((a.shape[0], 1)), trans[:, :-1]], axis=1)
    w = t_exc * a
    light = full(table_lookup(ltable, shading))
    return _March(t, dt, pos, dens, alb, normals, a, trans, t_exc, w, light)


def forward(background, *march_inputs):
    """Composite the hit rays given by ``march_inputs`` (the arguments of ``_march``).

    Returns (march, rgb, mask, depth_acc, illum_acc), each sum one value
    per hit ray: the weight sums of depth and irradiance are not yet
    divided by the mask.  ``backward`` reads the march and does not march
    again.
    """
    m = _march(*march_inputs)
    rgb = np.einsum("rs,rsc->rc", m.w * m.light, m.alb)
    rgb += m.trans[:, -1:] * background[None, :]
    return m, rgb, m.w.sum(axis=1), (m.w * m.t).sum(axis=1), (m.w * m.light).sum(axis=1)


def backward(cache, g_rgb, g_w_const, g_w_t, g_w_light):
    """Reverse-mode derivatives of the compositing chain.

    Returns the gradients of the field, the albedo and the light table.
    Per-sample upstream on the accumulation weight w_j is
    dot(g_rgb, albedo_j) * L_j + g_w_const + g_w_t * t_j + g_w_light * L_j;
    the final-transmittance background term is handled via the suffix sum.
    Shading normals are treated as constants (stop-gradient), so no
    derivative flows through the gradient nodes.  The samples are the ones
    ``forward`` marched (``cache.march`` of the rays ``cache.ridx``).
    """
    grid = cache.grid
    n = grid.resolution
    ridx = cache.ridx
    m = cache.march

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
