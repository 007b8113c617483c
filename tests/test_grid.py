import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orbitforge import _render_np
from orbitforge.grid import SceneGrid, node_gradient, sdf_to_density
from orbitforge.render import intersect_unit_cube

N = 5

# Points reach past the cube [-0.5, 0.5]^3 so that clamping is exercised; zero
# points is the gather and scatter of a view whose rays all miss the cube.
points_strategy = arrays(
    np.float64,
    st.tuples(st.integers(0, 40), st.just(3)),
    elements=st.floats(-0.8, 0.8, allow_nan=False),
)


def at(points):
    """The (origin, dirs, t) of samples at world ``points``: t = 1 along each point from the
    origin, which gives the points' own bits."""
    return np.zeros(3), points, np.ones(len(points))


class TestInterpScatterAdjoint:
    @pytest.mark.parametrize("channels", [1, 3])
    @given(points=points_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dot_product(self, channels, points, seed):
        rng = np.random.default_rng(seed)
        tail = () if channels == 1 else (channels,)
        values = rng.standard_normal((N, N, N) + tail)
        g = rng.standard_normal((len(points),) + tail)
        op = _render_np._trilinear(*at(points), N)
        lhs = np.sum(_render_np._interp(values, op) * g)
        scattered = (op.T @ g).reshape(values.shape)
        rhs = np.sum(values * scattered)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_interp_reproduces_nodes(self):
        values = np.random.default_rng(0).standard_normal((N, N, N))
        x = np.linspace(-0.5, 0.5, N)
        nodes = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
        np.testing.assert_allclose(
            _render_np._interp(values, _render_np._trilinear(*at(nodes), N)), values.ravel(),
            rtol=0, atol=1e-8
        )

    def test_cell_centre_is_corner_mean(self):
        values = np.random.default_rng(1).standard_normal((N, N, N, 3))
        centre = np.full((1, 3), -0.5 + 0.5 / (N - 1))
        np.testing.assert_allclose(
            _render_np._interp(values, _render_np._trilinear(*at(centre), N))[0],
            values[:2, :2, :2].mean(axis=(0, 1, 2))
        )


def _reference_occupancy(field):
    """The max over each cell's 8 corners of |field|, compared with 0."""
    n = field.shape[0]
    corners = [np.abs(field[dx:n - 1 + dx, dy:n - 1 + dy, dz:n - 1 + dz])
               for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
    return np.max(corners, axis=0) > 0.0


def _sparse_field(seed, n=N):
    """Random values on about a fifth of the nodes and exact zeros elsewhere."""
    rng = np.random.default_rng(seed)
    return np.where(rng.uniform(size=(n, n, n)) < 0.2, rng.standard_normal((n, n, n)), 0.0)


class TestOccupancy:
    @pytest.mark.parametrize(
        "node",
        [(0, 0, 0), (N - 1, N - 1, N - 1), (0, 2, 0), (N - 1, 0, 3), (0, 2, 3), (1, N - 1, 2),
         (2, 2, 2)],
        ids=["grid-corner", "far-grid-corner", "edge", "far-edge", "face", "far-face",
             "interior"],
    )
    def test_single_nonzero_node(self, node):
        field = np.zeros((N, N, N))
        field[node] = -2.0
        occupied = _render_np._cell_reduce(field != 0.0)
        np.testing.assert_array_equal(occupied, _reference_occupancy(field))
        # One cell per axis on which the node sits on the boundary, two per axis inside.
        assert occupied.sum() == np.prod([1 if i in (0, N - 1) else 2 for i in node])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_corner_max(self, seed):
        field = _sparse_field(seed)
        np.testing.assert_array_equal(_render_np._cell_reduce(field != 0.0),
                                      _reference_occupancy(field))

    @given(seed=st.integers(0, 2**32 - 1), limit=st.floats(-3.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_cell_min_matches_corner_min(self, seed, limit):
        """The cells of the node mask field <= L are the cells whose smallest corner is <= L,
        the SDF march's cell test."""
        field = np.random.default_rng(seed).standard_normal((N, N, N))
        corners = [field[dx:N - 1 + dx, dy:N - 1 + dy, dz:N - 1 + dz]
                   for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
        box = _render_np._occupied_cells(field <= limit)
        occ = np.ones((N - 1,) * 3, dtype=bool) if box is None else box[0]
        np.testing.assert_array_equal(occ, np.min(corners, axis=0) <= limit)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_box_holds_every_occupied_cell(self, seed):
        field = _sparse_field(seed)
        occ, lo, hi = _render_np._occupied_cells(field != 0.0)
        np.testing.assert_array_equal(occ, _reference_occupancy(field))
        # The box is one empty cell wider than the occupied cells on every side.
        cells = np.argwhere(occ)
        np.testing.assert_array_equal(lo, cells.min(axis=0) - 1)
        np.testing.assert_array_equal(hi, cells.max(axis=0) + 2)

    def test_empty_and_full_masks(self):
        occ, lo, hi = _render_np._occupied_cells(np.zeros((N, N, N), dtype=bool))
        assert not occ.any() and occ.shape == (N - 1,) * 3
        np.testing.assert_array_equal(lo, hi)
        assert _render_np._occupied_cells(np.ones((N, N, N), dtype=bool)) is None

    @given(points=points_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unoccupied_samples_gather_zero(self, points, seed):
        field = _sparse_field(seed)
        occ, _, _ = _render_np._occupied_cells(field != 0.0)
        rest = points[~occ.reshape(-1)[_render_np._cell_index(*at(points), N)]]
        assert np.all(_render_np._interp(field, _render_np._trilinear(*at(rest), N)) == 0.0)

    def test_picks_the_points_of_occupied_cells(self):
        points = np.random.default_rng(3).uniform(-0.5, 0.5, (200, 3))

        def occupied(field):
            occ, _, _ = _render_np._occupied_cells(field != 0.0)
            return occ.reshape(-1)[_render_np._cell_index(*at(points), N)]

        field = np.zeros((N, N, N))
        assert not occupied(field).any()
        field[2, 2, 2] = 1.0
        assert 0 < np.count_nonzero(occupied(field)) < len(points)
        field = np.ones((N, N, N))
        assert _render_np._occupied_cells(field != 0.0) is None  # every cell: gather all
        field[0, 0, 0] = 0.0
        assert occupied(field).all()


@st.composite
def lattice_cases(draw):
    """A resolution, points that reach past the cube or sit on its nodes, and a seed."""
    n = draw(st.integers(2, 9))
    nodes = list(-0.5 + np.arange(n) / (n - 1)) + [-0.5, 0.5]
    coordinate = st.one_of(st.floats(-0.8, 0.8, allow_nan=False), st.sampled_from(nodes))
    points = draw(arrays(np.float64, st.tuples(st.integers(0, 30), st.just(3)),
                         elements=coordinate))
    return n, points, draw(st.integers(0, 2**32 - 1))


def _reference_cells(points, n):
    """The cell (its lowest node's (m, 3) index) and the offset in it of each world point,
    points outside the cube clamped to its boundary: the lattice of whole points."""
    g = np.clip((points + 0.5) * (n - 1), 0.0, n - 1 - 1e-9)
    i0 = np.floor(g).astype(np.int64)
    return i0, g - i0


def _corner_loop(points, n):
    """Dense (m, n^3) trilinear weights, one point and one corner at a time."""
    dense = np.zeros((len(points), n ** 3))
    for row, (i0, f) in enumerate(zip(*_reference_cells(points, n))):
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    wx, wy, wz = (f[a] if d else 1 - f[a] for a, d in enumerate((dx, dy, dz)))
                    node = np.ravel_multi_index((i0[0] + dx, i0[1] + dy, i0[2] + dz), (n, n, n))
                    dense[row, node] = wx * wy * wz
    return dense


class TestTrilinear:
    @given(case=lattice_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_corner_loop(self, case):
        n, points, _ = case
        op = _render_np._trilinear(*at(points), n)
        assert op.shape == (len(points), n ** 3)
        assert op.indices.dtype == np.int32
        np.testing.assert_array_equal(op.indptr, np.arange(0, 8 * len(points) + 1, 8))
        assert np.all(np.diff(op.indices.reshape(-1, 8), axis=1) > 0)
        assert op.toarray().tobytes() == _corner_loop(points, n).tobytes()


@st.composite
def lattice_rays(draw):
    """A resolution, an origin, unit directions and two distances along each: inside the
    cube, at its entry t0 and exact exit t1, where the point lies on a face, and past or
    off it, where the point clamps to the boundary."""
    n = draw(st.integers(2, 9))
    coordinate = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-0.5, 0.0, 0.5]))
    origin = np.array(draw(st.tuples(coordinate, coordinate, coordinate)))
    component = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0]))
    dirs = draw(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                       elements=component))
    dirs[np.linalg.norm(dirs, axis=1) < 1e-3] = (0.0, 0.0, 1.0)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    u = draw(arrays(np.float64, (len(dirs), 2),
                    elements=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))))
    t0, t1, hit = intersect_unit_cube(origin, dirs)
    t = 4.0 * u
    t[hit] = np.where(u[hit] == 1.0, t1[hit, None], t0[hit, None] + u[hit] * (t1 - t0)[hit, None])
    return n, origin, dirs, t


class TestLattice:
    """``_trilinear`` and ``_cell_index`` build the lattice of the samples origin + t * dirs
    one axis at a time, with the bits of the whole points' lattice."""

    @given(case=lattice_rays())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_lattice_of_whole_points(self, case):
        n, origin, dirs, t = case
        points = (origin + t[..., None] * dirs[:, None]).reshape(-1, 3)
        i0, _ = _reference_cells(points, n)
        cells = (i0[:, 0] * (n - 1) + i0[:, 1]) * (n - 1) + i0[:, 2]
        weights = _corner_loop(points, n).tobytes()
        # (rays, samples) distances against each ray's direction, and packed rows.
        for along, dist in ((dirs[:, None], t), (np.repeat(dirs, 2, axis=0), t.reshape(-1))):
            op = _render_np._trilinear(origin, along, dist, n)
            assert op.shape == (len(points), n ** 3)
            assert op.toarray().tobytes() == weights
            cell = _render_np._cell_index(origin, along, dist, n)
            assert cell.shape == dist.shape
            np.testing.assert_array_equal(cell.reshape(-1), cells)


class TestNodeGradient:
    @pytest.mark.parametrize("n", [2, 3, 7, 8])
    @pytest.mark.parametrize("spacing", [0.37, 2.5])
    def test_matches_np_gradient(self, n, spacing):
        field = np.random.default_rng(n).standard_normal((n, n, n))
        expected = np.stack([np.gradient(field, spacing, axis=a) for a in range(3)], axis=-1)
        assert node_gradient(field, spacing).tobytes() == expected.tobytes()


class TestInterpGradient:
    @given(case=lattice_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_grid_gradient(self, case):
        """Bitwise, by the route the size rule picks and by each route forced: a cost of
        0 takes the corner stencil, one of n^3 the full-grid gradient."""
        n, points, seed = case
        field = np.random.default_rng(seed).standard_normal((n, n, n))
        spacing = 1.0 / (n - 1)
        op = _render_np._trilinear(*at(points), n)
        nodes = np.stack([np.gradient(field, spacing, axis=a) for a in range(3)], axis=-1)
        expected = _render_np._interp(nodes, op)
        for cost in (_render_np._STENCIL_COST, 0.0, float(n ** 3)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_render_np, "_STENCIL_COST", cost)
                got = _render_np._interp_gradient(field, spacing, op)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


def _four_term_lookup(ltable, normals):
    """The lat-long lookup as four gathered table terms, each (L * a) * b."""
    nt, nph = ltable.shape
    theta = np.arccos(np.clip(normals[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(normals[:, 1], normals[:, 0]), 2.0 * np.pi)
    r = np.clip(theta / np.pi * nt - 0.5, 0.0, nt - 1.0)
    c = phi / (2.0 * np.pi) * nph - 0.5
    r0 = np.floor(r).astype(np.int64)
    r1 = np.minimum(r0 + 1, nt - 1)
    fr = r - r0
    cf = np.floor(c)
    c0 = np.mod(cf.astype(np.int64), nph)
    c1 = np.mod(c0 + 1, nph)
    fc = c - cf
    return (ltable[r0, c0] * (1 - fr) * (1 - fc) + ltable[r0, c1] * (1 - fr) * fc
            + ltable[r1, c0] * fr * (1 - fc) + ltable[r1, c1] * fr * fc)


# The poles, where the south pole's two rows clamp onto one, and azimuths on
# either side of the 0 / 2 pi seam (arctan2 of -1e-300 wraps to exactly 2 pi).
SPECIAL_NORMALS = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (1.0, -0.0, 0.0),
                   (1.0, -1e-300, 0.0), (1.0, 1e-300, 0.0), (0.6, -1e-300, 0.8),
                   (0.6, -1e-12, -0.8), (-1.0, 0.0, 0.0), (-1.0, -0.0, 0.0)]


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


@st.composite
def table_cases(draw):
    """A table shape, unit normals mixing random and special directions, and a seed."""
    nt, nph = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    coordinate = st.floats(-1.0, 1.0, allow_nan=False)
    random_dir = st.tuples(coordinate, coordinate, coordinate).filter(
        lambda v: np.linalg.norm(v) > 1e-3).map(_unit)
    direction = st.one_of(st.sampled_from(SPECIAL_NORMALS), random_dir)
    normals = draw(st.lists(direction, max_size=30))
    return nt, nph, np.array(normals, dtype=np.float64).reshape(-1, 3), draw(
        st.integers(0, 2**32 - 1))


class TestBilinear:
    @given(case=table_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_four_term_lookup(self, case):
        nt, nph, normals, seed = case
        ltable = np.random.default_rng(seed).uniform(0.0, 2.0, (nt, nph))
        lop = _render_np._bilinear((nt, nph), normals)
        assert lop.shape == (len(normals), nt * nph)
        assert lop.indices.dtype == np.int32
        np.testing.assert_array_equal(lop.indptr, np.arange(0, 4 * len(normals) + 1, 4))
        assert np.all((lop.indices >= 0) & (lop.indices < nt * nph))
        np.testing.assert_allclose(lop.data.reshape(-1, 4).sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_render_np.table_lookup(ltable, lop),
                                   _four_term_lookup(ltable, normals),
                                   rtol=0, atol=1e-15 * ltable.max())

    @given(case=table_cases())
    @settings(max_examples=60, deadline=None)
    def test_dot_product(self, case):
        nt, nph, normals, seed = case
        rng = np.random.default_rng(seed)
        ltable = rng.standard_normal((nt, nph))
        w = rng.standard_normal(len(normals))
        lop = _render_np._bilinear((nt, nph), normals)
        lhs = np.sum(_render_np.table_lookup(ltable, lop) * w)
        rhs = np.sum(ltable * _render_np.table_scatter((nt, nph), lop, w))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_south_pole_clamps_to_the_last_row(self):
        lop = _render_np._bilinear((4, 6), np.array([(0.0, 0.0, -1.0)]))
        rows = lop.indices.reshape(4) // 6
        np.testing.assert_array_equal(rows, [3, 3, 3, 3])
        columns = lop.indices.reshape(2, 2) % 6
        np.testing.assert_array_equal(columns[0], columns[1])  # duplicate columns

    def test_seam_is_continuous(self):
        ltable = np.random.default_rng(2).uniform(0.0, 1.0, (4, 6))
        normals = np.array([(1.0, y, 0.0) for y in (-1e-12, -1e-300, -0.0, 0.0, 1e-300, 1e-12)])
        got = _render_np.table_lookup(ltable, _render_np._bilinear((4, 6), normals))
        np.testing.assert_allclose(got, got[3], rtol=0, atol=1e-11)
        np.testing.assert_allclose(got[3], ltable[1:3][:, [5, 0]].mean(), rtol=1e-14)


def _with(array, value):
    out = array.copy()
    out.flat[3] = value
    return out


FIELD = np.zeros((3, 3, 3))
ALBEDO = np.full((3, 3, 3, 3), 0.5)


class TestSceneGridRejectsNonFinite:
    @pytest.mark.parametrize(
        "kind, field, albedo, params",
        [
            ("density", _with(FIELD, np.nan), ALBEDO, {}),
            ("density", _with(FIELD, np.inf), ALBEDO, {}),
            ("sdf", _with(FIELD, np.nan), ALBEDO, {}),
            ("sdf", _with(FIELD, -np.inf), ALBEDO, {}),
            ("density", FIELD, _with(ALBEDO, np.nan), {}),
            ("sdf", FIELD, _with(ALBEDO, np.inf), {}),
            ("sdf", FIELD, ALBEDO, {"sdf_alpha": np.nan}),
            ("sdf", FIELD, ALBEDO, {"sdf_beta": np.nan}),
            ("sdf", FIELD, ALBEDO, {"sdf_alpha": np.inf}),
        ],
        ids=["density-nan", "density-inf", "sdf-nan", "sdf-neg-inf", "albedo-nan",
             "albedo-inf", "alpha-nan", "beta-nan", "alpha-inf"],
    )
    def test_rejected(self, kind, field, albedo, params):
        with pytest.raises(ValueError):
            SceneGrid(kind, field, albedo, **params)

    def test_finite_accepted(self):
        grid = SceneGrid("sdf", FIELD, ALBEDO)
        assert grid.resolution == 3


@pytest.mark.parametrize("beta", [np.nan, np.inf, 0.0, -0.02])
def test_sdf_to_density_rejects_bad_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite and > 0"):
        sdf_to_density(np.zeros(3), 150.0, beta)
