import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

from orbitforge import sg
from orbitforge.sg import (
    COSINE_LOBE_AMPLITUDE,
    COSINE_LOBE_SHARPNESS,
    Envmap,
    EnvmapFitError,
    SphericalGaussian,
    cosine_lobe,
    default_envmap,
    fibonacci_sphere,
    fit_envmap,
    hsv_value,
    illum_loss,
    irradiance_basis,
    irradiance_many,
    mc_sphere_integral,
    sg_eval,
    sg_inner_product,
)

EZ = np.array([0.0, 0.0, 1.0])

# Finite values across the exponent range, signed zeros, infinities and NaN.
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-310, 1e200, np.inf, -np.inf, np.nan]),
)


class TestLengthThreeReductions:
    """``sum3`` and ``norm3`` against the NumPy reductions they replace, bit for bit."""

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)), elements=EDGE_FLOATS))
    @settings(max_examples=300, deadline=None)
    def test_rows(self, v):
        with np.errstate(over="ignore", invalid="ignore"):
            assert sg.sum3(v).tobytes() == np.sum(v, axis=-1).tobytes()
            assert sg.norm3(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()

    @given(hnp.arrays(np.float64, 3, elements=EDGE_FLOATS))
    @settings(max_examples=100, deadline=None)
    def test_one_vector(self, v):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.float64(sg.sum3(v)).tobytes() == np.sum(v, axis=-1).tobytes()
            assert np.float64(sg.norm3(v)).tobytes() == np.linalg.norm(v, axis=-1).tobytes()

    def test_negative_zeros_sum_to_positive_zero(self):
        assert not np.signbit(sg.sum3(np.array([[-0.0, -0.0, -0.0]])))[0]

    def test_direction_not_three_dimensional_rejected(self):
        with pytest.raises(ValueError, match="last axis of length 3"):
            sg_eval(SphericalGaussian(EZ, 2.0, 1.0), np.array([0.6, 0.8]))


def random_lobe(rng, s_lo=0.5, s_hi=50.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return SphericalGaussian(axis, rng.uniform(s_lo, s_hi), rng.uniform(0.2, 2.0))


class TestSgEval:
    def test_peak_value(self):
        g = SphericalGaussian(EZ, 5.0, 0.7)
        assert sg_eval(g, EZ) == pytest.approx(0.7)

    def test_antipode(self):
        g = SphericalGaussian(EZ, 5.0, 1.0)
        assert sg_eval(g, -EZ) == pytest.approx(math.exp(-10.0))

    def test_flat_limit(self):
        g = SphericalGaussian(EZ, 1e-9, 2.0)
        x = np.array([1.0, 0.0, 0.0])
        assert sg_eval(g, x) == pytest.approx(2.0)

    def test_non_unit_rejected(self):
        g = SphericalGaussian(EZ, 1.0, 1.0)
        with pytest.raises(ValueError):
            sg_eval(g, np.array([0.0, 0.0, 1.1]))

    @pytest.mark.parametrize(
        "axis, sharpness, amplitude",
        [
            (EZ, math.nan, 1.0),
            (EZ, math.inf, 1.0),
            (EZ, 1.0, math.nan),
            (EZ, 1.0, math.inf),
            ((0.0, math.nan, 1.0), 1.0, 1.0),
        ],
        ids=["sharpness-nan", "sharpness-inf", "amplitude-nan", "amplitude-inf", "axis-nan"],
    )
    def test_non_finite_lobe_rejected(self, axis, sharpness, amplitude):
        with pytest.raises(ValueError):
            SphericalGaussian(axis, sharpness, amplitude)


class TestInnerProduct:
    def test_self_product_closed_form(self):
        # For identical lobes d_m = 2s, giving (pi a^2 / s)(1 - e^{-4s}).
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_lobe(rng)
            expected = (np.pi * g.amplitude**2 / g.sharpness) * (
                1.0 - math.exp(-4.0 * g.sharpness)
            )
            assert sg_inner_product(g, g) == pytest.approx(expected, rel=1e-12)

    def test_opposed_equal_sharpness_limit(self):
        g1 = SphericalGaussian(EZ, 5.0, 1.0)
        g2 = SphericalGaussian(-EZ, 5.0, 1.0)
        assert sg_inner_product(g1, g2) == pytest.approx(4.0 * np.pi * math.exp(-10.0))

    def test_commutative_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g1, g2 = random_lobe(rng), random_lobe(rng)
            assert sg_inner_product(g1, g2) == sg_inner_product(g2, g1)

    def test_matches_monte_carlo(self):
        # Independent oracle: uniform sphere quadrature of the pointwise
        # product.  The full 100-pair sweep runs in the acceptance suite.
        rng = np.random.default_rng(2)
        z = rng.uniform(-1, 1, 200_000)
        phi = rng.uniform(0, 2 * np.pi, 200_000)
        r = np.sqrt(1 - z * z)
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
        for _ in range(10):
            g1, g2 = random_lobe(rng), random_lobe(rng)
            vals = sg_eval(g1, pts) * sg_eval(g2, pts)
            mc = 4 * np.pi * vals.mean()
            closed = sg_inner_product(g1, g2)
            assert abs(closed - mc) <= 0.03 * abs(mc)


class TestCosineLobe:
    def test_constants(self):
        g = cosine_lobe(EZ)
        assert g.sharpness == COSINE_LOBE_SHARPNESS
        assert g.amplitude == COSINE_LOBE_AMPLITUDE
        assert sg_eval(g, EZ) == pytest.approx(1.17)

    def test_antipode_value(self):
        g = cosine_lobe(EZ)
        assert sg_eval(g, -EZ) == pytest.approx(1.17 * math.exp(-2 * 2.133))

    def test_integral_approximates_clamped_cosine(self):
        # integral of max(n.x, 0) over the sphere is pi; the lobe matches
        # within the documented 12%.
        rng = np.random.default_rng(3)
        g = cosine_lobe(EZ)
        val = mc_sphere_integral(lambda p: sg_eval(g, p), 1_000_000, rng)
        assert abs(val - np.pi) <= 0.12 * np.pi


class TestIrradiance:
    def test_empty_envmap(self):
        assert irradiance_many(Envmap(()), EZ[None])[0] == 0.0

    def test_empty_envmap_axes_shape(self):
        assert Envmap(()).axes.shape == (0, 3)
        assert irradiance_basis(Envmap(()), fibonacci_sphere(5)).shape == (5, 0)

    def test_single_aligned_lobe(self):
        g = SphericalGaussian(EZ, 5.0, 1.0)
        env = Envmap((g,))
        expected = sg_inner_product(g, cosine_lobe(EZ)) / np.pi
        assert irradiance_many(env, EZ[None])[0] == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        lobes = tuple(random_lobe(rng) for _ in range(6))
        n = np.array([0.0, 1.0, 0.0])
        a = irradiance_many(Envmap(lobes), n[None])[0]
        b = irradiance_many(Envmap(lobes[::-1]), n[None])[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_rotation_equivariant(self):
        rng = np.random.default_rng(5)
        lobes = tuple(random_lobe(rng) for _ in range(8))
        rot = Rotation.random(random_state=6).as_matrix()
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        rotated = tuple(
            SphericalGaussian(rot @ g.axis, g.sharpness, g.amplitude) for g in lobes
        )
        a = irradiance_many(Envmap(lobes), n[None])[0]
        b = irradiance_many(Envmap(rotated), (rot @ n)[None])[0]
        assert abs(a - b) < 1e-9

    def test_amplitude_homogeneity_exact(self):
        rng = np.random.default_rng(7)
        env = Envmap(tuple(random_lobe(rng) for _ in range(5)))
        n = np.array([1.0, 0.0, 0.0])
        base = irradiance_many(env, n[None])[0]
        scaled = Envmap(tuple(
            SphericalGaussian(g.axis, g.sharpness, 4.0 * g.amplitude) for g in env.lobes))
        assert irradiance_many(scaled, n[None])[0] == pytest.approx(4.0 * base, rel=1e-15)


class TestShadeAndLoss:
    def test_hsv_value(self):
        assert hsv_value(np.array([0.2, 0.7, 0.1])) == 0.7
        assert hsv_value(np.array([0.4, 0.4, 0.4])) == 0.4
        assert hsv_value(np.array([0.1, 0.2, 0.9])) == hsv_value(np.array([0.9, 0.2, 0.1]))

    def test_illum_loss_zero_when_matched(self):
        img = np.random.default_rng(0).uniform(0, 1, (4, 4, 3))
        assert illum_loss(img, hsv_value(img)) == pytest.approx(0.0)

    def test_illum_loss_constant_offset(self):
        img = np.full((3, 3, 3), 0.5)
        assert illum_loss(img, np.full((3, 3), 0.3)) == pytest.approx(0.04)

    def test_illum_loss_resolution_mismatch(self):
        with pytest.raises(ValueError):
            illum_loss(np.zeros((4, 4, 3)), np.zeros((3, 3)))


class TestMcSphereIntegral:
    def test_constant_function(self):
        rng = np.random.default_rng(8)
        val = mc_sphere_integral(lambda p: np.ones(len(p)), 200_000, rng)
        assert val == pytest.approx(4 * np.pi, rel=0.01)

    def test_odd_function_vanishes(self):
        rng = np.random.default_rng(9)
        val = mc_sphere_integral(lambda p: p[:, 2], 200_000, rng)
        assert abs(val) < 0.05

    def test_single_lobe_integral(self):
        # integral of a lobe over the sphere: (2 pi / s)(1 - e^{-2s}).
        rng = np.random.default_rng(10)
        g = SphericalGaussian(EZ, 10.0, 1.0)
        val = mc_sphere_integral(lambda p: sg_eval(g, p), 1_000_000, rng)
        expected = (2 * np.pi / 10.0) * (1 - math.exp(-20.0))
        assert abs(val - expected) <= 0.01 * expected


def lobe_basis(axes, sharp, normals):
    """``sg._lobe_columns`` over (3, m) normals in a fresh workspace: (cols, workspace)."""
    ws = np.empty((4, len(sharp), normals.shape[1]))
    return sg._lobe_columns(axes, sharp, normals, ws), ws


def fd_gradients(axes, sharp, amps, normals, albedo, target, *unused):
    """Central-difference oracle for ``sg._fit_gradients`` over (3, m) ``normals``;
    ignores the light, workspace and buffer arguments.

    Perturbing one lobe only swaps out its own basis row.  Axis steps
    are renormalized, so the axis gradient is the tangent-plane one;
    sharpness steps are taken in log space.
    """
    cols = lobe_basis(axes, sharp, normals)[0]
    light = amps @ cols

    def loss_with_column(j, col_j, amp_j):
        return sg._shading_loss(light - cols[j] * amps[j] + col_j * amp_j, albedo, target)

    def column(axis, s):
        return lobe_basis(axis[None, :], np.array([s]), normals)[0][0]

    g_amp = np.zeros_like(amps)
    g_axes = np.zeros_like(axes)
    g_logsharp = np.zeros_like(sharp)
    for j in range(len(amps)):
        h = 1e-6
        g_amp[j] = (
            loss_with_column(j, cols[j], amps[j] + h)
            - loss_with_column(j, cols[j], amps[j] - h)
        ) / (2.0 * h)
        hs = 1e-4
        cp = column(axes[j], sharp[j] * math.exp(hs))
        cm = column(axes[j], sharp[j] * math.exp(-hs))
        g_logsharp[j] = (
            loss_with_column(j, cp, amps[j]) - loss_with_column(j, cm, amps[j])
        ) / (2.0 * hs)
        for a in range(3):
            ha = 1e-5
            ap = axes[j].copy()
            ap[a] += ha
            am = axes[j].copy()
            am[a] -= ha
            cp = column(ap / np.linalg.norm(ap), sharp[j])
            cm = column(am / np.linalg.norm(am), sharp[j])
            g_axes[j, a] = (
                loss_with_column(j, cp, amps[j]) - loss_with_column(j, cm, amps[j])
            ) / (2.0 * ha)
    return g_amp, g_axes, g_logsharp


def row_major_columns(axes, sharp, normals):
    """The basis as an (m, n_lobes) array over (m, 3) normals, computed point-major as
    ``sg._lobe_columns`` once did: the oracle for the lobe-major workspace's bits."""
    s_c = COSINE_LOBE_SHARPNESS
    d = normals[:, :1] * axes[:, 0]
    d += normals[:, 1:2] * axes[:, 1]
    d += normals[:, 2:] * axes[:, 2]
    d += 1.0
    d *= 2.0 * s_c * sharp
    d += (sharp - s_c) ** 2
    np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    ratio = -np.expm1(-2.0 * np.maximum(d, 1e-300)) / np.maximum(d, 1e-300)
    return 2.0 * COSINE_LOBE_AMPLITUDE * np.exp(d - (sharp + s_c)) * ratio


def slope_over_d(d):
    """``sg._log_slope_over_d`` at the distances ``d``, with q as ``_lobe_columns`` makes it."""
    ws = np.stack([d, -np.expm1(-2.0 * d), d, d])[:, None, :]
    return sg._log_slope_over_d(ws, np.empty((1, len(d))))[0]


def random_unit(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def singular_lobes(rng):
    """Random lobes, plus lobes of the cosine lobe's sharpness or nearly so whose
    axes are opposed to EZ or nearly so: d_m at or near its removable singularity."""
    lobes = [random_lobe(rng) for _ in range(12)]
    for s in (COSINE_LOBE_SHARPNESS, COSINE_LOBE_SHARPNESS * (1.0 + 1e-9)):
        lobes.append(SphericalGaussian(-EZ, s, 1.0))
    tilted = np.array([1e-4, 0.0, -1.0])
    lobes.append(SphericalGaussian(tilted, COSINE_LOBE_SHARPNESS, 1.0))
    return Envmap(tuple(lobes))


class TestLobeColumns:
    def test_matches_scalar_inner_product(self):
        rng = np.random.default_rng(16)
        env = singular_lobes(rng)
        normals = np.concatenate([random_unit(rng, 40), EZ[None]])
        cols, ws = lobe_basis(env.axes, env.sharpnesses, np.ascontiguousarray(normals.T))
        unit_lobes = [SphericalGaussian(g.axis, g.sharpness, 1.0) for g in env.lobes]
        expected = np.array(
            [[sg_inner_product(g, cosine_lobe(n)) / np.pi for g in unit_lobes] for n in normals]
        )
        np.testing.assert_allclose(cols.T, expected, rtol=1e-12, atol=0.0)
        v = env.sharpnesses[None, :, None] * env.axes[None] + COSINE_LOBE_SHARPNESS * normals[:, None]
        np.testing.assert_allclose(ws[0].T, np.linalg.norm(v, axis=-1), rtol=1e-9, atol=1e-7)

    def test_matches_row_major_formula_bitwise(self):
        # Opposed axes at equal sharpness give d_m = 0 exactly (EZ against the
        # first singular lobe); the Fibonacci normals and the 24 default lobes are
        # the benchmark's fit and cover every ufunc loop's body and tail.
        rng = np.random.default_rng(24)
        lobes = singular_lobes(rng).lobes + default_envmap(24).lobes
        env = Envmap(lobes)
        normals = np.concatenate([fibonacci_sphere(4096), random_unit(rng, 37), EZ[None], -EZ[None]])
        cols, ws = lobe_basis(env.axes, env.sharpnesses, np.ascontiguousarray(normals.T))
        assert ws[0][12, -2] == math.sqrt(np.finfo(np.float64).tiny)
        expected = row_major_columns(env.axes, env.sharpnesses, normals)
        np.testing.assert_array_equal(cols.T, expected)
        basis = irradiance_basis(env, normals)
        assert basis.flags.c_contiguous
        np.testing.assert_array_equal(basis, expected)


class TestFitGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        truth = Envmap(tuple(random_lobe(rng, 1.0, 20.0) for _ in range(4)))
        env = Envmap(tuple(random_lobe(rng, 1.0, 20.0) for _ in range(6)))
        axes = env.axes
        sharp = env.sharpnesses.copy()
        amps = env.amplitudes.copy()
        amps[1] = 0.0
        # Lobe 2 matches the cosine lobe's sharpness; the last five normals
        # sit at and near its antipode, so d_m runs from 0 across the switch
        # to the series branch of the slope.
        sharp[2] = COSINE_LOBE_SHARPNESS
        near = [-axes[2] + eps * np.cross(axes[2], EZ) for eps in (0.0, 1e-7, 1e-3, 3e-3, 1e-2)]
        normals = np.concatenate([random_unit(rng, 300), np.array(near)])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        albedo = rng.uniform(0.2, 1.0, (len(normals), 3))
        target = albedo * irradiance_many(truth, normals)[:, None]
        normals = np.ascontiguousarray(normals.T)
        cols, ws = lobe_basis(axes, sharp, normals)
        assert ws[0][2, 300:].min() < 1e-6
        analytic = sg._fit_gradients(
            axes, sharp, amps, normals, albedo, target, amps @ cols, ws, np.empty_like(cols)
        )
        oracle = fd_gradients(axes, sharp, amps, normals, albedo, target)
        for got, want in zip(analytic, oracle):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        _, g_axes, g_logsharp = analytic
        np.testing.assert_array_equal(g_axes[1], 0.0)
        assert g_logsharp[1] == 0.0

    def test_slope_matches_taylor_series(self):
        # Near d = 0 a point's gradient terms vanish like d, so the fit
        # cannot show a wrong slope there; compare it with five terms of
        # the series of (coth d - 1/d) / d instead, on both branches, from
        # the floor that _lobe_columns puts under d.
        d = np.concatenate([[math.sqrt(np.finfo(np.float64).tiny)], np.geomspace(1e-8, 0.1, 200)])
        d2 = d * d
        taylor = 1 / 3 - d2 / 45 + 2 * d2**2 / 945 - d2**3 / 4725 + 2 * d2**4 / 93555
        np.testing.assert_allclose(slope_over_d(d), taylor, rtol=1e-10, atol=0.0)

    def test_slope_matches_tanh_form(self):
        # The slope from q against (1 / tanh d - 1/d) / d, from the series switch up
        # to the largest d_m the sharpness clip allows.  Both forms cancel 1/d against
        # coth d, so an ulp of 1/d in either moves the slope by about 3 eps / d^2
        # relative (4.3e-11 apart at the switch); from d = 0.05 up 1e-12 holds alone.
        d = np.geomspace(4e-3, 1e4 + COSINE_LOBE_SHARPNESS, 4000)
        tanh_form = (1.0 / np.tanh(d) - 1.0 / d) / d
        rtol = 1e-12 + 8.0 * np.finfo(np.float64).eps / (d * d)
        assert np.all(np.abs(slope_over_d(d) - tanh_form) <= rtol * tanh_form)


class TestFitEnvmap:
    @staticmethod
    def _make_views(env, rng, n_views=8, n_pixels=400):
        views = []
        for _ in range(n_views):
            normals = rng.normal(size=(n_pixels, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            albedo = rng.uniform(0.2, 1.0, (n_pixels, 3))
            light = irradiance_many(env, normals)
            rgb = albedo * light[:, None]
            views.append((rgb, normals, albedo))
        return views

    def test_amplitude_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        env = default_envmap(6, sharpness=4.0, amplitude=0.8)
        views = self._make_views(env, rng, n_views=2, n_pixels=200)
        target = np.concatenate([v[0] for v in views])
        normals = np.concatenate([v[1] for v in views])
        albedo = np.concatenate([v[2] for v in views])
        amps = rng.uniform(0.1, 1.0, 6)
        basis = irradiance_basis(env, normals)

        def loss(a):
            resid = albedo * (basis @ a)[:, None] - target
            return float(np.mean(resid * resid))

        normals = np.ascontiguousarray(normals.T)
        cols, ws = lobe_basis(env.axes, env.sharpnesses, normals)
        analytic = sg._fit_gradients(
            env.axes, env.sharpnesses, amps, normals, albedo, target, amps @ cols, ws,
            np.empty_like(cols),
        )[0]
        for j in range(6):
            h = 1e-6
            e = np.zeros(6)
            e[j] = h
            fd = (loss(amps + e) - loss(amps - e)) / (2 * h)
            assert abs(analytic[j] - fd) <= 1e-5 * max(abs(fd), 1e-8)

    def test_single_lobe_self_recovery(self):
        # Scene lit by one known lobe; fitting one lobe from 8 views must
        # recover the irradiance function within 5% RMS.
        rng = np.random.default_rng(12)
        axis = np.array([0.3, -0.5, 0.8])
        axis /= np.linalg.norm(axis)
        truth = Envmap((SphericalGaussian(axis, 6.0, 1.3),))
        views = self._make_views(truth, rng)
        init = Envmap((SphericalGaussian(EZ, 10.0, 0.5),))
        fitted = fit_envmap(views, init=init, iterations=400)
        probes = rng.normal(size=(100, 3))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        l_true = irradiance_many(truth, probes)
        l_fit = irradiance_many(fitted, probes)
        rms = np.sqrt(np.mean((l_fit - l_true) ** 2))
        scale = np.sqrt(np.mean(l_true**2))
        assert rms <= 0.05 * scale

    def test_zero_amplitude_black_images_noop(self):
        rng = np.random.default_rng(13)
        init = default_envmap(4, amplitude=0.0)
        normals = rng.normal(size=(50, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        views = [(np.zeros((50, 3)), normals, rng.uniform(0, 1, (50, 3)))]
        fitted, history = fit_envmap(views, init=init, iterations=10, return_history=True)
        assert history[0] == 0.0
        np.testing.assert_array_equal(fitted.amplitudes, 0.0)
        np.testing.assert_array_equal(fitted.axes, init.axes)

    @staticmethod
    def _fit_and_central_difference_fit(monkeypatch, s_lo, s_hi):
        # The benchmark's envmap_fit size: 4096 Fibonacci normals, 24 lobes of
        # sharpness 10, against 6 truth lobes of sharpness in [s_lo, s_hi).
        rng = np.random.default_rng(18)
        normals = fibonacci_sphere(4096)
        albedo = rng.uniform(0.3, 0.9, (4096, 3))
        truth = Envmap(tuple(random_lobe(rng, s_lo, s_hi) for _ in range(6)))
        views = [(albedo * irradiance_many(truth, normals)[:, None], normals, albedo)]
        fitted, history = fit_envmap(views, iterations=10, return_history=True)
        monkeypatch.setattr(sg, "_fit_gradients", fd_gradients)
        _, reference = fit_envmap(views, iterations=10, return_history=True)
        assert history[-1] < 0.5 * history[0]
        np.testing.assert_allclose(history, reference, rtol=1e-8, atol=0.0)
        return fitted

    def test_history_matches_central_difference_fit(self, monkeypatch):
        self._fit_and_central_difference_fit(monkeypatch, 2.0, 30.0)

    def test_sharper_truth_history_matches_central_difference_fit(self, monkeypatch):
        # A truth sharper than every initial lobe needs the axis and sharpness
        # steps, not only the amplitudes.
        fitted = self._fit_and_central_difference_fit(monkeypatch, 40.0, 80.0)
        assert np.all(np.log(fitted.sharpnesses / 10.0) > 0.05)
        assert np.abs(fitted.axes - default_envmap(24).axes).max() > 1e-3

    def test_caller_buffers_not_written(self):
        # Image-shaped buffers reshape to views of the caller's arrays, and the
        # fit works in place on its own buffers.
        rng = np.random.default_rng(25)
        normals = random_unit(rng, 96).reshape(8, 12, 3)
        albedo = rng.uniform(0.2, 1.0, (8, 12, 3))
        rgb = albedo * irradiance_many(default_envmap(6, 20.0), normals.reshape(-1, 3)).reshape(8, 12, 1)
        init = default_envmap(6, sharpness=4.0)

        def snapshot():
            bufs = (rgb, normals, albedo, init.axes, init.sharpnesses, init.amplitudes)
            return [b.tobytes() for b in bufs]

        before = snapshot()
        fit_envmap([(rgb, normals, albedo)], init=init, iterations=10)
        assert snapshot() == before

    @pytest.mark.parametrize(
        "field, value",
        [("rgb", math.nan), ("normals", math.inf), ("albedo", math.nan), ("normals", 2.0)],
        ids=["rgb-nan", "normals-inf", "albedo-nan", "normals-length-2"],
    )
    def test_bad_input_rejected(self, field, value):
        rng = np.random.default_rng(19)
        views = self._make_views(default_envmap(4), rng, n_views=1, n_pixels=50)
        rgb, normals, albedo = (a.copy() for a in views[0])
        bufs = {"rgb": rgb, "normals": normals, "albedo": albedo}
        if value == 2.0:
            bufs[field][7] *= value
        else:
            bufs[field][7, 1] = value
        with pytest.raises(ValueError):
            fit_envmap([(rgb, normals, albedo)], init=default_envmap(4), iterations=2)

    @pytest.mark.parametrize("field, n", [("foreground", 5), ("albedo", 7), ("normals", 9)],
                             ids=["foreground-short", "albedo-short", "normals-short"])
    def test_point_count_mismatch_named(self, field, n):
        # A named error, not an IndexError from the mask or a broadcast error inside the fit.
        views = self._make_views(default_envmap(4), np.random.default_rng(26), 2, 10)
        bufs = dict(zip(("rgb", "normals", "albedo"), views[1]), foreground=np.ones(10, bool))
        bufs[field] = bufs[field][:n]
        views[1] = tuple(bufs.values())
        counts = {name: n if name == field else 10 for name in bufs}
        want = "rgb {rgb}, normals {normals}, albedo {albedo} and foreground {foreground}"
        with pytest.raises(ValueError, match=f"^view 1 .*got {want.format(**counts)}$"):
            fit_envmap(views, init=default_envmap(4), iterations=2)

    @pytest.mark.parametrize("iterations", [-1, 2.5, 2.0, "3"],
                             ids=["negative", "fractional", "float", "str"])
    def test_bad_iterations_rejected(self, iterations):
        views = self._make_views(default_envmap(4), np.random.default_rng(22), 1, 10)
        with pytest.raises(ValueError, match="iterations"):
            fit_envmap(views, init=default_envmap(4), iterations=iterations)

    def test_no_descent_raises(self, monkeypatch):
        # Starting at the truth, an uphill amplitude step raises the loss at
        # every trial size, so every line search fails.
        truth = default_envmap(4, sharpness=5.0, amplitude=0.9)
        views = self._make_views(truth, np.random.default_rng(23), 1, 50)

        def uphill(axes, sharp, amps, *rest):
            return np.full_like(amps, -1e6), np.zeros_like(axes), np.zeros_like(sharp)

        monkeypatch.setattr(sg, "_fit_gradients", uphill)
        monkeypatch.setattr(sg, "_FIT_MAX_FAIL_STREAK", 2)
        with pytest.raises(EnvmapFitError, match="for 2 consecutive"):
            fit_envmap(views, init=truth, iterations=5)

    def test_init_without_lobes_rejected(self):
        views = self._make_views(default_envmap(4), np.random.default_rng(21), 1, 10)
        with pytest.raises(ValueError, match="at least one lobe"):
            fit_envmap(views, init=Envmap(()), iterations=2)

    def test_masked_out_pixels_not_checked(self):
        rng = np.random.default_rng(20)
        views = self._make_views(default_envmap(4), rng, n_views=1, n_pixels=50)
        rgb, normals, albedo = (a.copy() for a in views[0])
        rgb[7] = math.nan
        normals[7] = 0.0
        keep = np.ones(50, dtype=bool)
        keep[7] = False
        _, history = fit_envmap(
            [(rgb, normals, albedo, keep)], init=default_envmap(4), iterations=2,
            return_history=True,
        )
        assert np.all(np.isfinite(history))

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(14)
        truth = default_envmap(8, sharpness=5.0, amplitude=0.9)
        views = self._make_views(truth, rng, n_views=3, n_pixels=200)
        _, history = fit_envmap(
            views, init=default_envmap(8), iterations=40, return_history=True
        )
        assert np.all(np.diff(history) <= 1e-15)


class TestFibonacciSphere:
    def test_fibonacci_axes_unit(self):
        pts = fibonacci_sphere(24)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
