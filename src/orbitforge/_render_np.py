"""The NumPy render kernel behind ``render`` and ``render_backward``.

It owns every decision about a ray: which samples to gather, where node
gradients come from, the shading sign and the mask normalization of depth
and illum, with its adjoint; ``render`` only maps pixels to rays and back.
Vectorized over rays and samples.  ``forward`` marches the hit rays once
and returns the per-ray buffers, and the march when the caller keeps it;
``render`` keeps it on the ``render.RenderCache`` and ``backward`` reads it
from there, so a forward+backward step marches once.  No hit rays means
zero-length arrays.
Samples sit at a fixed per-pixel hash jitter, so the output is bitwise
reproducible for a given ``jitter_seed``.
Every march places its samples on the lattice the same way, and no sample
position is stored: ``_sample_points`` gives the distances t alone, and a
sample's clamped lattice coordinate ((o + t * d) + 0.5) * (n - 1) is taken
from the camera origin o, its ray's direction d and t one axis at a time
(``_coordinate``).  The cell tests, the SDF cell test and the occupied-cell
test, index their (n-1)^3 tables with one flat cell index per sample
(``_cell_index``), and ``_trilinear`` builds the operator of the gathered
samples, and of the surface points at the expected depths, from a (3, m)
block of their coordinates.
A march is packed, like NerfAcc's samples: every per-sample array has one
row per gathered sample, in ascending flat (ray, stratum) order
(``_March.keep``), and ``_ray_sums`` adds each ray's terms in that order,
which exact zeros do not change.  The only dense (rays, samples) step is
the two scans, forward's transmittance product and backward's suffix sum,
which place the packed rows (``_place``) and gather them back
(``_gather``); both reshape when every sample is gathered.
``forward`` builds each sparse operator once per march: ``_trilinear``'s
for the grid gathers (``_interp``) and ``_bilinear``'s for the light table
(``table_lookup``); ``backward`` only scatters through their transposes.
Shading normals are the field gradient at the gathered samples, taken by
``_interp_gradient`` from the operator's corners alone when it has fewer
than n^3 / ``_STENCIL_COST`` entries, and else from the full-grid node
gradient and one product; both give the same bits.

A density render whose march is not kept skips empty space exactly.  It
takes the box of the cells with a nonzero corner, widened by one cell
(``_occupied_cells``), and gives each hit ray its interval in that box by a
slab test (``_box_strata``).  A ray that misses the box is not marched: it
composites as a miss (background, mask 0, depth +inf, normal and illum 0),
which is what a march of all-zero opacity gives.  On the other rays only
the strata that may reach the interval are placed, each at the distance a
full placement gives it, and of those only the samples whose cell has a
nonzero corner are gathered: field, albedo and normals, and the light.
Every other sample would interpolate density 0, so its opacity and weight
are exactly 0, its albedo and light terms multiply 0, and its factor of
the transmittance is 1 - 0 = 1; the composited buffers keep their bits.
Backward needs those samples, since their field gradient is not 0, so a
kept density march places and gathers every sample.  So does a density
without a zero node.

An SDF's density never reaches 0, so an SDF march, kept or not, drops the
samples whose every contribution is provably below ``_EPS`` = eps instead,
and gathers the rest:

1. The cell test (``_sdf_samples``).  The trilinear SDF s is at least the
   smallest corner s_min of its cell, and sigmoid(x) <= exp(x), so a
   sample's opacity is a <= dens * dt <= alpha * exp(-s_min / beta) * dt.
   A sample where that bound is below eps is dropped (density 0).
2. The opaque cut.  Every sample whose transmittance T_exc, after step 1,
   is below eps is dropped as well, opacity 0: it is a suffix of the ray,
   so the march is the same truncated function forward and backward.

The bound.  Per ray of S samples, let delta < S * eps be the opacity summed
over the samples of step 1, eta = delta + eps, and M the march's mask.  The
weight left after the cut is below eps, every weight w_j moves by at most
eta, and the weights move by at most 2 * delta + eps in sum.  A buffer
sum_j w_j x_j + T_final * b therefore moves by at most eta * R, R the range
of the x_j and b: by eta * (2 * Lam + |background|) for rgb, Lam the largest
|light table| entry, and by eta for the mask.  Depth and illum divide such
sums by the mask: they move by at most eta * (t1 + depth) / M and
eta * (2 * Lam + |illum|) / M, t1 the ray's exit distance.  The normal, the
unit field gradient g at the expected depth, moves by at most
2 * sqrt(3) * |d depth| * D / (h * |g|), D the largest difference between
neighbouring node gradients and h the node spacing.

For the gradients let G_j be ``backward``'s upstream on w_j, G the largest
|G_j| or |g_rgb . background| of the ray, m0 = M - eta, and, on rays whose
mask reaches ``ImageBundle.VALID_MASK`` (0 elsewhere),
dG = 5 * eta * (|g_depth| * t1 + |g_illum| * Lam) / m0**2, the most any
G_j moves.  Each of the following per-sample terms reaches a node or a
table bin through the operator's nonnegative weights, which sum to 1 per
sample, so a node or bin moves by at most the weighted sum of these bounds:

- field: (2 * eps / beta) * G for a sample of step 1, since its term
  dt * dens'(s) * ((1 - a) * G_j * T_exc - S_j) has |S_j| <= G * T_exc and
  |dens'| <= dens / beta; alpha * dt * eps * G / (2 * beta) for a sample of
  step 2, since |dens'| <= alpha / (4 * beta); and
  (alpha * dt / (4 * beta)) * (2 * dG + 4 * (G + dG) * eta) for a gathered
  sample, whose transmittance, suffix sum and upstream moved;
- albedo: eta * Lam * |g_rgb|, per channel;
- light table: eta * (|g_rgb|_1 + 2 * |g_illum| / m0**2), and the light
  amplitudes through the table basis.

Density grids drop nothing this way: a zero density has an O(1) field
gradient, which is how a fit grows density into empty space.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grid import ImageBundle, node_gradient, sdf_to_density
from .sg import norm3

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / 9007199254740992.0
# What one operator entry's corner stencil costs in ``_interp_gradient``, in units of
# one node of the full-grid gradient and its product: on prefixes of render operators
# the two routes broke even at 3.8-4.5 at 64^3 and 2.8-5.0 at 128^3.
_STENCIL_COST = 4
# Opacity and transmittance below which an SDF sample is dropped (module docstring).
_EPS = 1e-10


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


def _coordinate(origin, dirs, t, n, axis, out):
    """The clamped lattice coordinate along ``axis`` of the samples origin + t * dirs, into
    ``out``, shaped like ``t``; ``dirs`` broadcasts against ``t[..., None]``.

    The cube [-0.5, 0.5]^3 is spanned by the n^3 nodes, and the coordinate
    is ((o + t * d) + 0.5) * (n - 1), clipped to [0, n - 1 - 1e-9]: a sample
    outside the cube clamps to its boundary.  Its int cast is its floor,
    the index of the lowest node of its cell along ``axis``.
    """
    np.multiply(t, dirs[..., axis], out=out)
    out += origin[axis]
    out += 0.5
    out *= n - 1
    return np.clip(out, 0.0, n - 1 - 1e-9, out=out)


def _cell_index(origin, dirs, t, n):
    """The flat index into the (n-1)^3 cells of the n^3 nodes of each sample origin + t * dirs
    (``_coordinate``), shaped like ``t``; built one axis at a time."""
    g = np.empty(np.shape(t))
    cell = np.zeros(np.shape(t), dtype=np.intp)
    for axis in range(3):
        cell *= n - 1
        cell += _coordinate(origin, dirs, t, n, axis, g).astype(np.intp)
    return cell


def _csr(indices, data, n_cols):
    """The CSR matrix whose row i holds ``data[i]`` at columns ``indices[i]``, both (m, k)."""
    import scipy.sparse  # here, not at module level: a run that never renders skips ~2 MB
    m, k = indices.shape
    indptr = np.arange(0, m * k + 1, k, dtype=np.int32)
    return scipy.sparse.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(m, n_cols))


def _trilinear(origin, dirs, t, n):
    """The (m, n^3) CSR matrix of trilinear weights on n^3 nodes of the m samples
    origin + t * dirs, in the flat order of ``t``; ``dirs`` broadcasts against ``t[..., None]``.

    Row i holds the 8 corners of sample i's cell, in ascending flat node
    order, with int32 indices; its product with the node values sums the 8
    corner terms in that order, starting from 0.  The lattice coordinates
    (``_coordinate``) of the samples fill one (3, m) block, which then holds
    their offsets in their cells.
    """
    g = np.empty((3,) + np.shape(t))
    for axis in range(3):
        _coordinate(origin, dirs, t, n, axis, g[axis])
    g = g.reshape(3, -1)
    i0 = g.astype(np.intp)
    g -= i0
    base = (i0[0] * n + i0[1]) * n + i0[2]
    fx, fy, fz = g
    indices = np.empty((len(base), 8), dtype=np.int32)
    data = np.empty((len(base), 8))
    k = 0
    for dx, wx in ((0, 1 - fx), (1, fx)):
        for dy, wy in ((0, 1 - fy), (1, fy)):
            wxy = wx * wy
            for dz, wz in ((0, 1 - fz), (1, fz)):
                indices[:, k] = base + ((dx * n + dy) * n + dz)
                data[:, k] = wxy * wz
                k += 1
    return _csr(indices, data, n ** 3)


def _interp(values, op):
    """Trilinear interpolation of (n, n, n[, c]) node values at the samples of ``op``."""
    return op @ values.reshape((op.shape[1],) + values.shape[3:])


def _interp_gradient(field, spacing, op):
    """``_interp(node_gradient(field, spacing), op)``, bitwise, by the cheaper of two routes.

    An operator with fewer than ``field.size / _STENCIL_COST`` entries reads
    its corners alone: each corner's gradient is computed with
    ``np.gradient``'s arithmetic, (f[i+1] - f[i-1]) / (2.0*h) inside the grid
    and one-sided differences divided by h on its faces, for the 8 corners of
    every row in one pass, and the weighted corners are summed in corner
    order from 0, as the operator's product sums them.  A larger one takes
    the full-grid gradient and one product.
    """
    if _STENCIL_COST * op.nnz >= field.size:
        return _interp(node_gradient(field, spacing), op)
    n = field.shape[0]
    flat = field.reshape(-1)
    idx = op.indices
    gvec = np.empty(idx.shape + (3,))
    for axis, stride in enumerate((n * n, n, 1)):
        i = idx // stride % n
        above, below = i < n - 1, i > 0
        h = np.where(above & below, 2.0 * spacing, spacing)
        gvec[:, axis] = (flat[idx + stride * above] - flat[idx - stride * below]) / h
    terms = (gvec * op.data[:, None]).reshape(-1, 8, 3)
    out = 0.0
    for k in range(8):
        out = out + terms[:, k]
    return out


def _occupancy(nonzero):
    """(n-1)^3 cell mask from an n^3 node mask: True where any of the cell's 8 corners is."""
    occ = nonzero[1:] | nonzero[:-1]
    occ = occ[:, 1:] | occ[:, :-1]
    return occ[:, :, 1:] | occ[:, :, :-1]


def _cell_min(field):
    """(n-1)^3 cell minima of an n^3 node field: the smallest of each cell's 8 corners."""
    low = np.minimum(field[1:], field[:-1])
    low = np.minimum(low[:, 1:], low[:, :-1])
    return np.minimum(low[:, :, 1:], low[:, :, :-1])


def _occupied_cells(nonzero):
    """The cells with a nonzero corner, and the box around them widened by one cell.

    Returns (occ, lo, hi): the (n-1)^3 cell mask of ``_occupancy``, and the
    (3,) indices of the widened box's lowest cell and of the cell past its
    highest, -1 and n on a face the occupied cells reach.  The node mask is
    reduced per axis first and ``_occupancy`` runs on the box alone; every
    cell outside it is False.  An all-zero mask gives an empty box, lo = hi;
    a mask without a zero gives None, since every cell is then occupied.
    """
    if nonzero.all():
        return None
    n = nonzero.shape[0]
    occ = np.zeros((n - 1,) * 3, dtype=bool)
    lo, hi = [], []
    yz = nonzero.any(axis=0)
    for nodes in map(np.flatnonzero, (nonzero.any(axis=(1, 2)), yz.any(axis=1), yz.any(axis=0))):
        if nodes.size == 0:
            return occ, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)
        # Cells nodes[0] - 1 to nodes[-1] have a nonzero corner.
        lo.append(max(nodes[0] - 1, 0))
        hi.append(min(nodes[-1] + 1, n - 1))
    occ[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = _occupancy(
        nonzero[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1])
    return occ, np.array(lo) - 1, np.array(hi) + 1


def _box_strata(origin, dirs, t0, t1, dt, n_samples, lo, hi, spacing):
    """The hit rays that meet the box of the cells ``lo`` to ``hi`` - 1 (``_occupied_cells``),
    and the strata of theirs that may hold a point of it.

    A slab test gives each ray the interval [t_a, t_b] it spends in the box
    and the cube; a ray meets the box when t_a < t_b, which no ray does when
    the box is empty.  A point at t lies in stratum floor((t - t0) / dt), so
    a point of the interval lies in the strata [floor((t_a - t0) / dt),
    ceil((t_b - t0) / dt)); one more on either side absorbs rounding, as the
    box's border of empty cells does for the slab test.
    Returns (rays, (rows, j)): the indices of the meeting rays, and for each
    placed stratum its row in ``rays`` and its index j.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        near = (-0.5 + lo * spacing - origin) / dirs
        far = (-0.5 + hi * spacing - origin) / dirs
    # fmin/fmax skip the NaN of a ray that runs along a face plane.
    enter, leave = np.fmin(near, far), np.fmax(near, far)
    t_a = np.maximum(t0, np.maximum(np.maximum(enter[:, 0], enter[:, 1]), enter[:, 2]))
    t_b = np.minimum(t1, np.minimum(np.minimum(leave[:, 0], leave[:, 1]), leave[:, 2]))
    rays = np.flatnonzero(t_a < t_b)
    t0, dt = t0[rays], dt[rays]
    first = np.maximum(np.floor((t_a[rays] - t0) / dt) - 1, 0).astype(np.int64)
    stop = np.minimum(np.ceil((t_b[rays] - t0) / dt) + 1, n_samples).astype(np.int64)
    counts = stop - first
    rows = np.repeat(np.arange(len(rays)), counts)
    j = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts - first, counts)
    return rays, (rows, j)


def _sdf_samples(grid, origin, dirs, t, dt):
    """Ascending flat indices of the (rays, samples) samples origin + t * dirs of an SDF grid
    whose opacity may reach ``_EPS``; ``dirs`` broadcasts against ``t[..., None]``.

    A sample's density is at most alpha * exp(-s / beta) <= alpha * exp(-s_min / beta),
    s_min the smallest corner of its cell, and its opacity at most that times
    its ray's spacing ``dt``; a sample whose bound is below ``_EPS`` is dropped.
    """
    with np.errstate(divide="ignore"):
        log_eps = np.log(_EPS)  # -inf at 0, where nothing is dropped
    limit = grid.sdf_beta * (np.log(grid.sdf_alpha * dt) - log_eps)
    s_min = _cell_min(grid.field).reshape(-1)[_cell_index(origin, dirs, t, grid.resolution)]
    return np.flatnonzero(s_min <= limit[:, None])


def _unit_normals(grid, gvec):
    """Signed unit normals from field gradients; +z where the gradient vanishes."""
    sign = 1.0 if grid.kind == "sdf" else -1.0  # along an SDF's gradient, against a density's
    norms = norm3(gvec)
    normals = sign * gvec / np.maximum(norms, 1e-20)[..., None]
    normals[norms < 1e-12] = (0.0, 0.0, 1.0)
    return normals


def _bilinear(shape, normals):
    """The (m, n_theta * n_phi) CSR matrix of lat-long lookup weights of (m, 3) unit normals.

    Row i holds the bins (r0, c0), (r0, c1), (r1, c0), (r1, c1) around normal
    i, with int32 indices; azimuth wraps, and at the poles r1 clamps onto r0.
    """
    nt, nph = shape
    theta = np.arccos(np.clip(normals[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(normals[:, 1], normals[:, 0]), 2.0 * np.pi)
    r = np.clip(theta / np.pi * nt - 0.5, 0.0, nt - 1.0)
    c = phi / (2.0 * np.pi) * nph - 0.5
    r0 = np.floor(r).astype(np.int32)
    c0 = np.floor(c).astype(np.int32)
    fr, fc = r - r0, c - c0
    indices = np.empty((len(normals), 4), dtype=np.int32)
    data = np.empty((len(normals), 4))
    cols = ((c0 % nph, 1 - fc), ((c0 + 1) % nph, fc))
    k = 0
    for row, wr in ((r0 * nph, 1 - fr), (np.minimum(r0 + 1, nt - 1) * nph, fr)):
        for col, wc in cols:
            indices[:, k] = row + col
            data[:, k] = wr * wc
            k += 1
    return _csr(indices, data, nt * nph)


def table_lookup(ltable, lop):
    """Irradiance at the normals of ``lop``, a ``_bilinear`` operator on ``ltable``."""
    return lop @ ltable.ravel()


def table_scatter(shape, lop, weights):
    """Adjoint of ``table_lookup``: per-normal ``weights`` accumulated into the table bins."""
    return (lop.T @ weights.ravel()).reshape(shape)


def _sample_points(pix, t0, dt, n_samples, jitter_seed, strata=None):
    """Sample distances on the hit rays.

    Stratum j of a ray holds one sample at t0 + (j + jitter) * dt, the jitter
    keyed by (pixel, j).  Every stratum of every ray is placed, shaped
    (rays, n_samples), unless ``strata`` = (rows, j) names the strata to place,
    one sample each, shaped (m,); a sample has the same bits either way.  The
    distances are computed in the jitter's array.
    """
    rows, j = (np.s_[:, None], np.arange(n_samples)) if strata is None else strata
    t = hash01(pix[rows], j, jitter_seed)
    t += j
    t *= dt[rows]
    t += t0[rows]
    return t


class _March(NamedTuple):
    """The gathered samples of the marched rays, one row each in ``keep`` order, and their
    three operators; ``dt`` and ``t_final`` have one row per marched ray."""

    n_samples: int  # strata per ray
    dt: np.ndarray  # sample spacing
    t_final: np.ndarray  # transmittance after the ray's last sample
    keep: np.ndarray  # ascending flat (ray, stratum) indices of the gathered samples
    op: object  # _trilinear rows
    lop: object  # _bilinear rows
    weights: object  # _ray_sums operator of the compositing weights
    t: np.ndarray  # distance along the ray
    dens: np.ndarray
    alb: np.ndarray
    a: np.ndarray  # opacity
    t_exc: np.ndarray  # transmittance before the sample
    w: np.ndarray  # compositing weight
    light: np.ndarray  # irradiance at the shading normal


def _place(shape, idx, values, fill):
    """An array of ``shape`` holding ``fill``, with ``values`` rows at the ascending flat
    positions ``idx``; ``values`` reshaped when ``idx`` is every position."""
    if len(idx) == math.prod(shape):
        return values.reshape(shape + values.shape[1:])
    out = np.full(shape + values.shape[1:], fill)
    out.reshape((-1,) + values.shape[1:])[idx] = values
    return out


def _gather(dense, idx):
    """The rows of a (rays, samples, ...) array at the ascending flat positions ``idx``."""
    flat = dense.reshape((-1,) + dense.shape[2:])
    return flat if len(idx) == len(flat) else flat[idx]


def _place_rays(shape, idx, buffers, background):
    """The (rgb, mask, depth, normal, illum) ``buffers`` of rays ``idx`` placed into arrays
    of ``shape`` rays, every other ray holding a miss: background, mask 0, depth +inf,
    normal 0 and illum 0."""
    return tuple(_place(shape, idx, values, fill)
                 for values, fill in zip(buffers, (background, 0.0, np.inf, 0.0, 0.0)))


def _ray_sums(rows, n_rays, weights):
    """The (n_rays, m) CSR matrix holding ``weights`` at (rows[i], i), ``rows`` ascending: its
    product with per-sample values sums each ray's weighted values in sample order from 0."""
    import scipy.sparse
    indptr = np.searchsorted(rows, np.arange(n_rays + 1)).astype(np.int32)
    cols = np.arange(len(rows), dtype=np.int32)
    return scipy.sparse.csr_matrix((weights, cols, indptr), shape=(n_rays, len(rows)))


def _sums(m):
    """Per-ray sums of a march: mask, and depth and irradiance not yet divided by it.  The
    mask is 1 - T_final, which sum_j w_j telescopes to, and unlike that sum it stays in [0, 1]."""
    return 1.0 - m.t_final, m.weights @ m.t, m.weights @ m.light


def _transmittance(a, keep, shape):
    """Transmittance before each opacity ``a`` at flat positions ``keep`` of (rays, samples),
    and after each ray's last sample; a sample not gathered multiplies by 1 - 0 = 1."""
    trans = np.cumprod(_place(shape, keep, 1.0 - a, 1.0), axis=1)
    t_exc = np.concatenate([np.ones((shape[0], 1)), trans[:, :-1]], axis=1)
    return _gather(t_exc, keep), trans[:, -1]


def forward(grid, ltable, background, *, origin, dirs, t0, t1, pix, n_samples, jitter_seed,
            normals, keep_march):
    """March the hit rays once and composite them into per-ray buffers.

    ``origin`` is the camera position, and ``dirs``, ``t0``, ``t1`` and the
    flat pixel indices ``pix`` describe the hit rays only.  Samples are placed
    by their distances t; their cells and trilinear weights come from
    origin + t * dir one axis at a time (module docstring).  ``normals`` are
    the whole image's frozen (height, width, samples, 3) shading normals, or
    None to take them from the field gradient at the gathered samples
    (``_interp_gradient``).  An SDF grid gathers only the samples that pass
    the cell test and lie before the opaque cut.  Unless the caller keeps the
    march (``keep_march``), a density grid marches only the rays that meet
    the box of its occupied cells, places only their strata that may reach
    it, and gathers only the samples of occupied cells (module docstring).

    Returns (march, normals, pix, rgb, mask, depth, normal, illum).  With
    ``keep_march`` the march holds what ``backward`` reads and normals are
    the shading normals of its gathered samples, one row each; without it
    both are None.  ``pix`` are the pixels of the marched rays, ascending,
    and each buffer has one row per marched ray: depth and illum are divided
    by the mask where it reaches ``ImageBundle.VALID_MASK``, depth is +inf
    and illum and normal 0 elsewhere, and normal is the unit field gradient
    at the expected depth.  A hit ray that is not marched is a miss.
    """
    sdf = grid.kind == "sdf"
    n = grid.resolution
    dt = (t1 - t0) / n_samples
    cells = None if sdf or keep_march else _occupied_cells(grid.field != 0.0)
    if cells is None:
        # Every stratum is placed, (rays, samples), each against its ray's direction.
        t = _sample_points(pix, t0, dt, n_samples, jitter_seed)
        along = dirs[:, None]
        keep = _sdf_samples(grid, origin, along, t, dt) if sdf else np.arange(t.size)
        rows = keep // n_samples
        if len(keep) < t.size:
            t, along = t.reshape(-1)[keep], dirs[rows]
    else:
        # Only the rays that meet the occupied box are marched, on the strata that may reach it.
        occ, lo, hi = cells
        rays, (rows, j) = _box_strata(origin, dirs, t0, t1, dt, n_samples, lo, hi, grid.spacing)
        dirs, t0, pix, dt = dirs[rays], t0[rays], pix[rays], dt[rays]
        t = _sample_points(pix, t0, dt, n_samples, jitter_seed, (rows, j))
        along = dirs[rows]
        occupied = np.flatnonzero(occ.reshape(-1)[_cell_index(origin, along, t, n)])
        rows, t, along = rows[occupied], t[occupied], along[occupied]
        keep = rows * n_samples + j[occupied]
    shape = (len(pix), n_samples)

    op = _trilinear(origin, along, t, n)
    t = t.reshape(-1)
    del along
    f = _interp(grid.field, op)
    dens = sdf_to_density(f, grid.sdf_alpha, grid.sdf_beta) if sdf else f
    a = -np.expm1(-dens * dt[rows])
    t_exc, t_final = _transmittance(a, keep, shape)
    if sdf:
        # The opaque cut drops a suffix of each ray, whose transmittance stays below eps
        # without it, so forward and backward describe the same truncated march.  The kept
        # T_exc stand, and a cut ray's T_final is the T_exc of its first cut sample.
        lit = t_exc >= _EPS
        if not lit.all():
            cut = np.flatnonzero(~lit)
            first = cut[np.r_[True, rows[cut[1:]] != rows[cut[:-1]]]]
            t_final[rows[first]] = t_exc[first]
            keep, rows, op, t, dens, a = keep[lit], rows[lit], op[lit], t[lit], dens[lit], a[lit]
            t_exc = t_exc[lit]
    alb = _interp(grid.albedo, op)
    if normals is None:
        normals = _unit_normals(grid, _interp_gradient(grid.field, grid.spacing, op))
    else:
        normals = normals.reshape(-1, 3)[pix[rows] * n_samples + keep % n_samples]
    lop = _bilinear(ltable.shape, normals)
    light = table_lookup(ltable, lop)
    w = t_exc * a
    weights = _ray_sums(rows, shape[0], w)
    m = _March(n_samples, dt, t_final, keep, op, lop, weights, t, dens, alb, a, t_exc, w, light)

    rgb = _ray_sums(rows, shape[0], w * light) @ alb
    rgb += t_final[:, None] * background[None, :]
    mask, depth_acc, illum_acc = _sums(m)
    # Masked assignment, not np.where, which would divide by the zero masks too.
    valid = mask >= ImageBundle.VALID_MASK
    depth = np.full(mask.shape, np.inf)
    depth[valid] = depth_acc[valid] / mask[valid]
    illum = np.zeros(mask.shape)
    illum[valid] = illum_acc[valid] / mask[valid]
    normal = np.zeros(dirs.shape)
    # The operator of the surface points origin + depth * dirs.
    surface = _trilinear(origin, dirs[valid], depth[valid], n)
    normal[valid] = _unit_normals(grid, _interp_gradient(grid.field, grid.spacing, surface))
    return ((m, normals) if keep_march else (None, None)) + (pix, rgb, mask, depth, normal, illum)


def backward(cache, g_rgb, g_mask, g_depth, g_illum):
    """Reverse-mode derivatives of the compositing chain.

    Takes the upstream gradients of the rgb, mask, depth and illum images and
    returns the gradients of the field, the albedo and the light table.
    Depth and illum are folded through their mask normalization per ray,
    from the sums ``forward`` took of the same march.  Per-sample upstream
    on the accumulation weight w_j is
    dot(g_rgb, albedo_j) * L_j + g_w_const + g_w_t * t_j + g_w_light * L_j;
    the final-transmittance background term is handled via the suffix sum.
    Shading normals are treated as constants (stop-gradient), so no
    derivative flows through the gradient nodes.  The samples are the ones
    ``forward`` gathered (``cache.march`` of the rays ``cache.ridx``), and
    the scatters are the transposes of the operators it built.
    """
    grid = cache.grid
    ridx = cache.ridx
    m = cache.march
    rows = m.keep // m.n_samples

    grgb = g_rgb.reshape(-1, 3)[ridx]
    g_mask, g_depth, g_illum = (g.ravel()[ridx] for g in (g_mask, g_depth, g_illum))
    mask, depth_acc, illum_acc = _sums(m)
    valid = mask >= ImageBundle.VALID_MASK
    safe = np.where(valid, mask, 1.0)
    gwt = np.where(valid, g_depth / safe, 0.0)
    gwl = np.where(valid, g_illum / safe, 0.0)
    gwc = g_mask + np.where(
        valid, -(g_depth * depth_acc + g_illum * illum_acc) / (safe * safe), 0.0
    )
    bgdot = grgb @ cache.background

    # Every term is taken at the gathered samples only; the others have weight 0.
    grgb = grgb[rows]
    grgb_dot_alb = np.einsum("rc,rc->r", grgb, m.alb)
    g_per_w = grgb_dot_alb * m.light + gwc[rows] + gwt[rows] * m.t + gwl[rows] * m.light
    # Suffix sums: S_k = sum_{j>k} G_j w_j + bgdot * T_final, over the dense rows.
    shape = (len(ridx), m.n_samples)
    suffix = np.cumsum(_place(shape, m.keep, g_per_w * m.w, 0.0)[:, ::-1], axis=1)[:, ::-1]
    suffix = np.concatenate([suffix[:, 1:], np.zeros((shape[0], 1))], axis=1)
    suffix = _gather(suffix, m.keep) + (bgdot * m.t_final)[rows]
    d_dens = m.dt[rows] * ((1.0 - m.a) * g_per_w * m.t_exc - suffix)
    del suffix, g_per_w
    if grid.kind == "sdf":
        sig = m.dens / grid.sdf_alpha
        d_dens = d_dens * (-(grid.sdf_alpha / grid.sdf_beta) * sig * (1.0 - sig))

    g_field = (m.op.T @ d_dens).reshape(grid.field.shape)
    g_alb_samples = (m.w * m.light)[:, None] * grgb
    g_albedo = (m.op.T @ g_alb_samples).reshape(grid.albedo.shape)
    del g_alb_samples
    g_light_samples = m.w * (grgb_dot_alb + gwl[rows])
    g_table = table_scatter(cache.light.values.shape, m.lop, g_light_samples)
    return g_field, g_albedo, g_table
