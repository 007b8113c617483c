import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

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
    irradiance,
    irradiance_basis,
    irradiance_many,
    load_envmap,
    mc_sphere_integral,
    save_envmap,
    sg_eval,
    sg_inner_product,
    shade,
)

EZ = np.array([0.0, 0.0, 1.0])


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
        assert irradiance(Envmap(()), EZ) == 0.0

    def test_single_aligned_lobe(self):
        g = SphericalGaussian(EZ, 5.0, 1.0)
        env = Envmap((g,))
        expected = sg_inner_product(g, cosine_lobe(EZ)) / np.pi
        assert irradiance(env, EZ) == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        lobes = tuple(random_lobe(rng) for _ in range(6))
        n = np.array([0.0, 1.0, 0.0])
        a = irradiance(Envmap(lobes), n)
        b = irradiance(Envmap(lobes[::-1]), n)
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
        a = irradiance(Envmap(lobes), n)
        b = irradiance(Envmap(rotated), rot @ n)
        assert abs(a - b) < 1e-9

    def test_amplitude_homogeneity_exact(self):
        rng = np.random.default_rng(7)
        env = Envmap(tuple(random_lobe(rng) for _ in range(5)))
        n = np.array([1.0, 0.0, 0.0])
        base = irradiance(env, n)
        scaled = env.with_amplitudes(env.amplitudes * 4.0)
        assert irradiance(scaled, n) == pytest.approx(4.0 * base, rel=1e-15)


class TestShadeAndLoss:
    def test_gray_shade(self):
        np.testing.assert_allclose(shade(np.ones(3), 0.5), [0.5, 0.5, 0.5])

    def test_black_albedo(self):
        np.testing.assert_array_equal(shade(np.zeros(3), 2.0), 0.0)

    def test_linear_in_light(self):
        alb = np.array([0.25, 0.5, 1.0])
        np.testing.assert_allclose(shade(alb, 2.0), 2.0 * shade(alb, 1.0))

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

        analytic = (2.0 / target.size) * basis.T @ np.sum(
            albedo * (albedo * (basis @ amps)[:, None] - target), axis=1
        )
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

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(14)
        truth = default_envmap(8, sharpness=5.0, amplitude=0.9)
        views = self._make_views(truth, rng, n_views=3, n_pixels=200)
        _, history = fit_envmap(
            views, init=default_envmap(8), iterations=40, return_history=True
        )
        assert np.all(np.diff(history) <= 1e-15)


class TestEnvmapIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        env = Envmap(tuple(random_lobe(rng) for _ in range(24)))
        path = tmp_path / "env.txt"
        save_envmap(path, env)
        loaded = load_envmap(path)
        assert len(loaded) == 24
        np.testing.assert_allclose(loaded.axes, env.axes, atol=1e-8)
        np.testing.assert_allclose(loaded.amplitudes, env.amplitudes, rtol=1e-8)

    def test_fibonacci_axes_unit(self):
        pts = fibonacci_sphere(24)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
