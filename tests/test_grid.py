import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orbitforge import _render_np
from orbitforge.grid import SceneGrid

N = 5

# Points reach past the cube [-0.5, 0.5]^3 so that clamping is exercised.
points_strategy = arrays(
    np.float64,
    st.tuples(st.integers(1, 40), st.just(3)),
    elements=st.floats(-0.8, 0.8, allow_nan=False),
)


class TestInterpScatterAdjoint:
    @pytest.mark.parametrize("channels", [1, 3])
    @given(points=points_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dot_product(self, channels, points, seed):
        rng = np.random.default_rng(seed)
        tail = () if channels == 1 else (channels,)
        values = rng.standard_normal((N, N, N) + tail)
        g = rng.standard_normal((len(points),) + tail)
        lhs = np.sum(_render_np._interp(values, points) * g)
        scattered = _render_np._scatter(g, points, N)
        assert scattered.shape == values.shape
        rhs = np.sum(values * scattered)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_interp_reproduces_nodes(self):
        values = np.random.default_rng(0).standard_normal((N, N, N))
        x = np.linspace(-0.5, 0.5, N)
        nodes = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
        np.testing.assert_allclose(
            _render_np._interp(values, nodes), values.ravel(), rtol=0, atol=1e-8
        )

    def test_cell_centre_is_corner_mean(self):
        values = np.random.default_rng(1).standard_normal((N, N, N, 3))
        centre = np.full((1, 3), -0.5 + 0.5 / (N - 1))
        np.testing.assert_allclose(
            _render_np._interp(values, centre)[0], values[:2, :2, :2].mean(axis=(0, 1, 2))
        )


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
