import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.diffusion import (
    GaussianMixture,
    GaussianMixtureDenoiser,
    GuidanceSchedule,
    SigmaSchedule,
    cfg_combine,
    ddim_sample,
    make_sigma_schedule,
)
from orbitforge.diffusion import _shift_rows


class TestScore:
    def test_matches_finite_difference_log_density(self):
        # Tweedie: (D - x) / sigma^2 is the score of the noised marginal.
        # Independent oracle: central differences of the closed-form
        # log-marginal of random 2-D mixtures.
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(20):
            k = rng.integers(1, 4)
            mix = GaussianMixture(
                rng.uniform(0.2, 1.0, k),
                rng.normal(0.0, 1.0, (k, 2)),
                rng.uniform(0.05, 0.5, k),
            )
            sigma = float(rng.uniform(0.3, 2.0))
            x = rng.normal(0.0, 1.5, 2)
            d = mix.posterior_mean(x, sigma)
            score = (d - x) / (sigma * sigma)
            fd = np.zeros(2)
            for a in range(2):
                e = np.zeros(2)
                e[a] = h
                fd[a] = (
                    mix.log_marginal(x + e, sigma) - mix.log_marginal(x - e, sigma)
                ) / (2 * h)
            assert np.linalg.norm(score - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)


class TestAnalyticDenoiser:
    def test_deterministic_single_component(self):
        mix = GaussianMixture([1.0], [[2.0, -1.0]], [0.0])
        for x in ([0.0, 0.0], [5.0, 5.0]):
            np.testing.assert_allclose(mix.posterior_mean(np.array(x), 0.8), [2.0, -1.0])

    def test_sigma_zero_returns_x(self):
        mix = GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.1, 0.1])
        x = np.array([0.37])
        np.testing.assert_array_equal(mix.posterior_mean(x, 0.0), x)

    def test_symmetry_at_midpoint(self):
        mix = GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.0, 0.0])
        np.testing.assert_allclose(
            mix.posterior_mean(np.array([0.0]), 1.0), [0.0], atol=1e-15
        )

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        mix = GaussianMixture(
            rng.uniform(0.1, 1.0, 3), rng.normal(size=(3, 2)), rng.uniform(0, 0.3, 3)
        )
        xs = rng.normal(size=(8, 2))
        for sig in rng.uniform(0.2, 2.0, 4):
            batched = mix.posterior_mean(xs, sig)
            for i in range(8):
                np.testing.assert_allclose(batched[i], mix.posterior_mean(xs[i], sig))

    def test_row_sigma_zero_never_divides(self):
        # A zero-variance component at sigma = 0 has v + sigma^2 = 0; every
        # row comes back as a copy of x without dividing by it (warnings are
        # errors here).
        mix = GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.0, 0.1])
        xs = np.array([[0.37], [-2.0]])
        out = mix.posterior_mean(xs, 0.0)
        np.testing.assert_array_equal(out, xs)
        assert not np.shares_memory(out, xs)
        point = mix.posterior_mean(xs[1], 0.0)
        np.testing.assert_array_equal(point, xs[1])
        assert point.shape == (1,) and not np.shares_memory(point, xs)

    @pytest.mark.parametrize(
        "call",
        [
            lambda mix: mix.posterior_mean(np.zeros(4), 0.5),
            lambda mix: mix.posterior_mean(np.zeros((3, 2)), 0.5),
            lambda mix: mix.log_marginal(np.zeros(4), 0.5),
            lambda mix: mix.log_marginal(np.zeros((3, 2)), 0.0),
            lambda mix: ddim_sample(
                GaussianMixtureDenoiser({None: mix}), make_sigma_schedule(10.0, 0.01, 3),
                x_init=np.zeros(4),
            ),
        ],
        ids=["posterior-point", "posterior-batch", "log-marginal-point",
             "log-marginal-batch", "ddim-sample"],
    )
    def test_wrong_dim_rejected(self, call):
        # A 1-D mixture: a length-4 point is not four 1-D rows.
        mix = GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.1, 0.1])
        with pytest.raises(ValueError, match=r"dim 1, got shape \([^)]*[42]"):
            call(mix)

    def test_log_marginal_point_mass_at_sigma_zero_rejected(self):
        # v + sigma^2 = 0: the point-mass component has no density at sigma = 0.
        mix = GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.0, 0.1])
        with pytest.raises(ValueError, match="zero-variance"):
            mix.log_marginal(np.array([0.37]), 0.0)
        with pytest.raises(ValueError, match="zero-variance"):
            mix.log_marginal(np.array([[0.37], [1.0]]), 0.0)

    def test_zero_weight_component_has_no_mass(self):
        # ln 0 = -inf: no warning (an error here), and the mixture is the other component.
        mix = GaussianMixture([0.0, 1.0], [[5.0], [-1.0]], [0.1, 0.1])
        alone = GaussianMixture([1.0], [[-1.0]], [0.1])
        x = np.array([[4.9], [0.3]])
        np.testing.assert_allclose(mix.posterior_mean(x, 0.7), alone.posterior_mean(x, 0.7),
                                   rtol=1e-13)
        np.testing.assert_allclose(mix.log_marginal(x, 0.7), alone.log_marginal(x, 0.7),
                                   rtol=1e-13)

    def test_weights_normalized(self):
        mix = GaussianMixture([2.0, 2.0], [[0.0], [1.0]], [0.0, 0.0])
        assert abs(mix.weights.sum() - 1.0) < 1e-12

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture([], np.zeros((0, 1)), [])

    def test_means_not_k_by_dim_rejected(self):
        with pytest.raises(ValueError, match=r"means must be a \(K, dim\) array, got shape \(1, 2, 2\)"):
            GaussianMixture([1.0], np.zeros((1, 2, 2)), [1.0])

    def test_sigma_per_row_shape_rejected(self):
        # One noise level per call: an array sigma, one value per row or not, is rejected.
        mix = GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.1, 0.1])
        den = GaussianMixtureDenoiser({"obj": mix, None: mix})
        x = np.zeros((2, 1))
        for sigma, shape in ((np.array([0.5, 0.5]), r"\(2,\)"), (np.array([0.5]), r"\(1,\)"),
                             ([0.5, 0.0], r"\(2,\)")):
            match = "sigma must be one number per call, got shape " + shape
            with pytest.raises(ValueError, match=match):
                mix.posterior_mean(x, sigma)
            with pytest.raises(ValueError, match=match):
                mix.log_marginal(x, sigma)
            with pytest.raises(ValueError, match=match):
                den.guided(x, sigma, "obj", 2.0)


def dense_log_joint(mix, x, sigma):
    """The (n, K, dim) difference formula, kept as the reference for the library's."""
    x = np.atleast_2d(x)
    sigma = np.broadcast_to(sigma, x.shape[:1])
    s2 = mix.variances[None, :] + (sigma * sigma)[:, None]
    diff = x[:, None, :] - mix.means[None, :, :]
    sq = np.sum(diff * diff, axis=-1)
    joint = -0.5 * (mix.dim * np.log(2.0 * np.pi * s2) + sq / s2) + np.log(mix.weights)
    top = np.max(joint, axis=1, keepdims=True)
    return joint - top, top, diff, s2


def dense_log_marginal(mix, x, sigma):
    shifted, top, _, _ = dense_log_joint(mix, x, sigma)
    return top[:, 0] + np.log(np.sum(np.exp(shifted), axis=1))


def dense_posterior_mean(mix, x, sigma):
    shifted, _, diff, s2 = dense_log_joint(mix, x, sigma)
    resp = np.exp(shifted)
    resp /= np.sum(resp, axis=1, keepdims=True)
    post = mix.means[None, :, :] + (mix.variances[None, :] / s2)[:, :, None] * diff
    return np.sum(resp[:, :, None] * post, axis=1)


_ORACLE_SIGMAS = make_sigma_schedule().sigmas[:-1]


@st.composite
def mixture_batches(draw):
    """A mixture whose means are shifted by up to 100 per coordinate, and points drawn
    from it at one sigma of the default schedule (80 down to 0.002)."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 16))
    variances = draw(st.lists(st.sampled_from([0.0, 1e-4, 0.2, 2.0]), min_size=k, max_size=k))
    offset = draw(st.floats(0.0, 100.0))
    sigma = draw(st.sampled_from(_ORACLE_SIGMAS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.uniform(-offset, offset, d) + rng.standard_normal((k, d))
    mix = GaussianMixture(rng.uniform(0.1, 1.0, k), means, variances)
    comp = rng.integers(0, k, n)
    spread = np.sqrt(mix.variances[comp] + sigma * sigma)[:, None]
    return mix, means[comp] + spread * rng.standard_normal((n, d)), sigma


def assert_matches_dense(mix, x, sigma):
    want = dense_posterior_mean(mix, x, sigma)
    got = mix.posterior_mean(x, sigma)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    want = dense_log_marginal(mix, x, sigma)
    got = mix.log_marginal(x, sigma)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestDenseOracle:
    """The matrix-product posterior against the (n, K, dim) formula it replaced."""

    @given(mixture_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_formula(self, case):
        assert_matches_dense(*case)

    @pytest.mark.parametrize("variance", [0.0, 0.2])
    def test_at_a_mean_at_smallest_sigma(self, variance):
        rng = np.random.default_rng(11)
        means = 100.0 + rng.standard_normal((4, 8))
        mix = GaussianMixture([0.4, 0.3, 0.2, 0.1], means, [variance] * 4)
        assert_matches_dense(mix, means.copy(), 0.002)

    @pytest.mark.parametrize("sigma", [80.0, 1.0, 0.002])
    def test_point_masses_close_together_far_out(self, sigma):
        centre = np.full(3, 10.0)
        means = np.stack([centre, centre + np.array([1e-4, 0.0, 0.0])])
        mix = GaussianMixture([0.5, 0.5], means, [0.0, 0.0])
        x = centre + np.array([[0.0, 0.0, 0.0], [5e-5, 0.0, 0.0], [3e-5, 1e-3, -2e-3]])
        assert_matches_dense(mix, x, sigma)

    def test_builds_no_batch_by_component_array(self):
        n, k, d = 64, 16, 256
        rng = np.random.default_rng(2)
        mix = GaussianMixture(np.ones(k), rng.standard_normal((k, d)), np.full(k, 0.2))
        x = rng.standard_normal((n, d))
        tracemalloc.start()
        try:
            mix.posterior_mean(x, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * d * 8


def reference_log_joint(mix, x, sigma):
    """The log-joint as the library built it before it worked in place, kept as the
    bitwise reference: fresh (n, K) arrays for sigma^2, the distances and the joint."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), x.shape[:1])
    s2 = mix.variances[None, :] + (sigma * sigma)[:, None]
    xc = x - mix._centroid
    sq = np.einsum("nd,nd->n", xc, xc)[:, None] - 2.0 * (xc @ mix._centred.T)
    sq = np.maximum(sq + mix._centred_sq, 0.0)
    joint = -0.5 * (mix.dim * np.log(2.0 * np.pi * s2) + sq / s2) + mix._log_weights
    top = np.max(joint, axis=1, keepdims=True)
    return joint - top, top, s2


def reference_log_marginal(mix, x, sigma):
    shifted, top, _ = reference_log_joint(mix, x, sigma)
    return top[:, 0] + np.log(np.sum(np.exp(shifted), axis=1))


def reference_posterior_mean(mix, x, sigma):
    """The posterior mean as the library computed it on a copy of x, kept as the
    bitwise reference."""
    x = np.asarray(x, dtype=np.float64)
    out = np.atleast_2d(x).copy()
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), out.shape[:1])
    noisy = sigma != 0.0
    rows = slice(None) if noisy.all() else noisy
    shifted, _, s2 = reference_log_joint(mix, out[rows], sigma[rows])
    resp = np.exp(shifted)
    resp /= np.sum(resp, axis=1, keepdims=True)
    kept = resp * (mix.variances / s2)
    out[rows] = np.sum(kept, axis=1, keepdims=True) * out[rows] + (resp - kept) @ mix.means
    return out[0] if x.ndim == 1 else out


def reference_ddim_sample(denoiser, schedule, x_init, cond=None, guidance=1.0):
    """The Euler loop with fresh temporaries per step, kept as the bitwise reference."""
    x = np.array(x_init, dtype=np.float64, copy=True)
    sig = schedule.sigmas
    for i in range(schedule.n_steps):
        s_cur, s_next = sig[i], sig[i + 1]
        d_val = np.asarray(denoiser(x, s_cur, cond), dtype=np.float64)
        if guidance != 1.0:
            d_val = cfg_combine(d_val, denoiser(x, s_cur, None), guidance)
        x = x + (s_next - s_cur) * (x - d_val) / s_cur
    return x


def benchmark_sized_mixtures(k, seed=1):
    """A k-component conditional mixture and a 2k-component null one in 256 dimensions,
    with 64 start points at sigma 80, as in the sampling benchmark."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((2 * k, 256))
    variances = np.full(2 * k, 0.2)
    weights = rng.uniform(0.5, 1.5, 2 * k)
    cond = GaussianMixture(weights[:k], means[:k], variances[:k])
    null = GaussianMixture(weights, means, variances)
    return cond, null, 80.0 * rng.standard_normal((64, 256))


class Recorder:
    """A denoiser that keeps every x it is passed and every array it returns, each
    with its bytes at that time."""

    def __init__(self, denoiser):
        self.denoiser = denoiser
        self.seen = []

    def __call__(self, x, sigma, cond=None):
        out = self.denoiser(x, sigma, cond)
        self.seen += [(x, x.tobytes()), (out, out.tobytes())]
        return out


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBitwiseAgainstReference:
    """The in-place posterior and Euler step against the code they replaced."""

    @pytest.mark.parametrize("k", [8, 16])
    @pytest.mark.parametrize("sigma", [80.0, 1.5, 0.002])
    def test_benchmark_size(self, k, sigma):
        _, mix, x = benchmark_sized_mixtures(k)
        x = x * (sigma / 80.0) + mix.means[np.arange(64) % mix.n_components]
        s2, log_norm = mix._sigma_terms(sigma)
        shifted = mix._joint_from(*mix._centred_terms(mix._batch(x)), s2, log_norm)
        top = _shift_rows(shifted)
        want_shifted, want_top, want_s2 = reference_log_joint(mix, x, sigma)
        assert same_bits(shifted, want_shifted) and same_bits(top, want_top)
        assert same_bits(np.broadcast_to(s2, want_s2.shape).copy(), want_s2)
        assert same_bits(mix.posterior_mean(x, sigma), reference_posterior_mean(mix, x, sigma))

    def test_one_point(self):
        _, mix, x = benchmark_sized_mixtures(8, seed=4)
        got = mix.posterior_mean(x[5], 2.5)
        assert same_bits(got, reference_posterior_mean(mix, x[5], 2.5))
        assert got.shape == (256,)

    @given(mixture_batches())
    @settings(max_examples=100, deadline=None)
    def test_oracle_batches(self, case):
        mix, x, sigma = case
        assert same_bits(mix.posterior_mean(x, sigma), reference_posterior_mean(mix, x, sigma))
        assert same_bits(mix.log_marginal(x, sigma), reference_log_marginal(mix, x, sigma))

    def test_guided_chain(self):
        """The two-call route of a plain callable against the reference loop, bit for bit.

        A ``GaussianMixtureDenoiser`` itself takes the factor route, which reorders the
        arithmetic; ``TestGuidedPass`` holds that route to this one."""
        cond, null, x0 = benchmark_sized_mixtures(8)
        den = GaussianMixtureDenoiser({"obj": cond, None: null})
        sched = make_sigma_schedule()
        got = ddim_sample(lambda x, s, c=None: den(x, s, c), sched, cond="obj",
                          guidance=2.9, x_init=x0)
        want = reference_ddim_sample(
            lambda x, s, c=None: reference_posterior_mean(den.mixtures[c], x, s),
            sched, x0, cond="obj", guidance=2.9)
        assert same_bits(got, want)

    @pytest.mark.parametrize("guidance", [1.0, 2.9])
    def test_inputs_never_written(self, guidance):
        cond, null, x0 = benchmark_sized_mixtures(8)
        x_init = x0[:8].copy()
        before = x_init.tobytes()
        den = Recorder(GaussianMixtureDenoiser({"obj": cond, None: null}))
        out = ddim_sample(den, make_sigma_schedule(n_steps=12), cond="obj",
                          guidance=guidance, x_init=x_init)
        assert x_init.tobytes() == before
        assert len(den.seen) == (2 if guidance == 1.0 else 4) * 12
        for array, bits in den.seen:
            assert array.tobytes() == bits
            assert array is not out


def guided_oracle(cond, null, x, sigma, w):
    """w D_cond - (w - 1) D_null from two separate posterior means."""
    return w * cond.posterior_mean(x, sigma) - (w - 1.0) * null.posterior_mean(x, sigma)


def assert_close_to(got, want, rtol=1e-12):
    assert got.shape == want.shape and np.isfinite(got).all()
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@st.composite
def sampler_chains(draw):
    """A null mixture of up to 8 components in up to 16 dimensions (so K > dim occurs), with
    means shifted by up to 100 per coordinate; a conditional mixture of its first ones;
    start points at sigma_max = 80 about the shift; and a 1-, 2-, 5- or 50-step schedule."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8))
    k_cond = draw(st.integers(1, k))
    d = draw(st.integers(1, 16))
    variances = draw(st.lists(st.sampled_from([0.0, 1e-4, 0.2, 2.0]), min_size=k, max_size=k))
    offset = draw(st.floats(0.0, 100.0))
    sched = make_sigma_schedule(n_steps=draw(st.sampled_from([1, 2, 5, 50])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = rng.uniform(-offset, offset, d)
    means = shift + rng.standard_normal((k, d))
    weights = rng.uniform(0.1, 1.0, k)
    cond = GaussianMixture(weights[:k_cond], means[:k_cond], variances[:k_cond])
    den = GaussianMixtureDenoiser({"obj": cond, None: GaussianMixture(weights, means, variances)})
    return den, sched, shift + sched[0] * rng.standard_normal((n, d))


class CountingDenoiser(GaussianMixtureDenoiser):
    """Counts its plain and its guided calls."""

    def __init__(self, mixtures):
        super().__init__(mixtures)
        self.calls = {"plain": 0, "guided": 0}

    def __call__(self, x, sigma, cond=None):
        self.calls["plain"] += 1
        return super().__call__(x, sigma, cond)

    def guided(self, x, sigma, cond, w):
        self.calls["guided"] += 1
        return super().guided(x, sigma, cond, w)


class TestGuidedPass:
    """``GaussianMixtureDenoiser.guided`` against two posterior means and ``cfg_combine``."""

    @pytest.mark.parametrize("k", [8, 16])
    @pytest.mark.parametrize("sigma", [80.0, 1.5, 0.002])
    @pytest.mark.parametrize("w", [0.0, 1.95, 2.9])
    def test_benchmark_size(self, k, sigma, w):
        cond, null, x = benchmark_sized_mixtures(k)
        x = x * (sigma / 80.0) + null.means[np.arange(64) % null.n_components]
        got = GaussianMixtureDenoiser({"obj": cond, None: null}).guided(x, sigma, "obj", w)
        assert_close_to(got, guided_oracle(cond, null, x, sigma, w))

    @pytest.mark.parametrize("w", [0.0, 1.95, 2.9])
    def test_on_a_null_only_component(self, w):
        # Every conditional component is about 1e3 nats below the null block's
        # maximum here: under one maximum shared by both blocks the conditional
        # responsibilities would underflow to 0/0.
        cond, null, _ = benchmark_sized_mixtures(8)
        x = null.means[8:].copy()
        got = GaussianMixtureDenoiser({"obj": cond, None: null}).guided(x, 0.002, "obj", w)
        assert_close_to(got, guided_oracle(cond, null, x, 0.002, w))

    def test_one_point(self):
        cond, null, x = benchmark_sized_mixtures(8, seed=4)
        got = GaussianMixtureDenoiser({"obj": cond, None: null}).guided(x[5], 2.5, "obj", 2.9)
        assert got.shape == (256,)
        assert_close_to(got, guided_oracle(cond, null, x[5], 2.5, 2.9))

    @given(mixture_batches(), st.sampled_from([0.0, 1.95, 2.9]))
    @settings(max_examples=100, deadline=None)
    def test_oracle_batches(self, case, w):
        cond, x, sigma = case
        rng = np.random.default_rng(0)
        null = GaussianMixture(
            np.concatenate([cond.weights, rng.uniform(0.1, 1.0, 2)]),
            np.concatenate([cond.means, cond.means[:1] + rng.standard_normal((2, cond.dim))]),
            np.concatenate([cond.variances, [0.2, 0.2]]),
        )
        got = GaussianMixtureDenoiser({"obj": cond, None: null}).guided(x, sigma, "obj", w)
        want = guided_oracle(cond, null, x, sigma, w)
        # Scaled by the larger term, since guidance may cancel most of it.
        scale = max(np.max(np.abs(w * cond.posterior_mean(x, sigma))), np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_null_token_is_its_own_posterior_mean(self):
        # w D_null - (w - 1) D_null = D_null: the null token needs no table.
        cond, null, x = benchmark_sized_mixtures(8)
        den = GaussianMixtureDenoiser({"obj": cond, None: null})
        assert same_bits(den.guided(x, 1.5, None, 2.9), den(x, 1.5, None))

    def test_never_writes_x(self):
        cond, null, x = benchmark_sized_mixtures(8)
        den = GaussianMixtureDenoiser({"obj": cond, None: null})
        before = x.tobytes()
        for sigma in (0.0, 0.7):
            for points in (x, x[3]):  # a batch and one point
                out = den.guided(points, sigma, "obj", 2.9)
                assert x.tobytes() == before and not np.shares_memory(out, x)
                assert out.shape == points.shape
        assert same_bits(den.guided(x[3], 0.0, "obj", 2.9), x[3])

    @pytest.mark.parametrize("guidance", [0.0, 1.0, 1.95, 2.9])
    def test_sampler_routes_agree(self, guidance):
        """The factor route of a ``GaussianMixtureDenoiser``, which makes no denoiser call,
        against the plain-callable route."""
        sched = make_sigma_schedule()
        for k in (8, 16):
            cond, null, x0 = benchmark_sized_mixtures(k)
            den = CountingDenoiser({"obj": cond, None: null})
            got = ddim_sample(den, sched, cond="obj", guidance=guidance, x_init=x0)
            assert den.calls == {"plain": 0, "guided": 0}
            want = ddim_sample(lambda x, s, c=None: den(x, s, c), sched, cond="obj",
                               guidance=guidance, x_init=x0)
            assert_close_to(got, want)

    @given(sampler_chains(), st.sampled_from([0.0, 1.0, 1.95, 2.9]))
    @settings(max_examples=150, deadline=None)
    def test_sampler_routes_agree_on_random_mixtures(self, case, guidance):
        """The factor route carries x_i - c through the Gram matrix of the centred means, whose
        expansion cancels; it stays within 1e-12 of the plain route's largest |entry|."""
        den, sched, x0 = case
        got = ddim_sample(den, sched, cond="obj", guidance=guidance, x_init=x0)
        want = ddim_sample(lambda x, s, c=None: den(x, s, c), sched, cond="obj",
                           guidance=guidance, x_init=x0)
        assert_close_to(got, want)

    @pytest.mark.parametrize("w", [1.0, 2.9])
    @pytest.mark.parametrize("n_steps", [1, 12])
    def test_edge_batches_keep_their_shape(self, w, n_steps):
        """One point comes back as one point, with row 0 of its (1, dim) batch's bits, and
        an empty batch comes back empty."""
        cond, null, x0 = benchmark_sized_mixtures(8)
        den = GaussianMixtureDenoiser({"obj": cond, None: null})
        sched = make_sigma_schedule(n_steps=n_steps)
        point = ddim_sample(den, sched, cond="obj", guidance=w, x_init=x0[3])
        row = ddim_sample(den, sched, cond="obj", guidance=w, x_init=x0[3:4])
        assert point.shape == (256,) and row.shape == (1, 256)
        assert same_bits(point, row[0])
        empty = ddim_sample(den, sched, cond="obj", guidance=w, x_init=x0[:0])
        assert empty.shape == (0, 256)

    def test_scalar_point_keeps_its_shape(self):
        """A number is one point of a 1-D mixture, and comes back as a number from every
        route, as the plain-callable chain returns it."""
        mix = GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.1, 0.1])
        den = GaussianMixtureDenoiser({"obj": mix, None: mix})
        sched = make_sigma_schedule(10.0, 0.01, 3)
        plain = ddim_sample(lambda x, s, c=None: den(x, s, c), sched, x_init=0.3)
        for out in (mix.posterior_mean(0.3, 0.5), mix.posterior_mean(0.3, 0.0),
                    den.guided(0.3, 0.5, "obj", 2.0), ddim_sample(den, sched, x_init=0.3)):
            assert out.shape == plain.shape == ()

    def test_unit_guidance_takes_the_plain_call(self):
        """At w = 1 the chain reads the conditional mixture alone, as the plain call does,
        so a denoiser without a null token gives the same bits."""
        cond, null, x0 = benchmark_sized_mixtures(8)
        den = CountingDenoiser({"obj": cond, None: null})
        sched = make_sigma_schedule(n_steps=5)
        got = ddim_sample(den, sched, cond="obj", x_init=x0)
        assert den.calls == {"plain": 0, "guided": 0}
        alone = GaussianMixtureDenoiser({"obj": cond})
        assert same_bits(got, ddim_sample(alone, sched, cond="obj", x_init=x0))

    @pytest.mark.parametrize("w", [0.0, 1.0, 2.9])
    @pytest.mark.parametrize("sigma", [80.0, 1.5])
    def test_one_step_chain_is_the_prediction(self, w, sigma):
        # The last step has c = -1 exactly: a = kappa and -c Q = Q.
        cond, null, x = benchmark_sized_mixtures(8)
        x = x * (sigma / 80.0) + null.means[np.arange(64) % null.n_components]
        den = GaussianMixtureDenoiser({"obj": cond, None: null})
        got = ddim_sample(den, SigmaSchedule(np.array([sigma, 0.0])), cond="obj",
                          guidance=w, x_init=x)
        want = den(x, sigma, "obj") if w == 1.0 else den.guided(x, sigma, "obj", w)
        assert same_bits(got, want)

    @pytest.mark.parametrize("w", [1.0, 2.9])
    def test_factor_route_never_writes_x_init(self, w):
        cond, null, x0 = benchmark_sized_mixtures(8)
        den = GaussianMixtureDenoiser({"obj": cond, None: null})
        sched = make_sigma_schedule(n_steps=12)
        before = x0.tobytes()
        out = ddim_sample(den, sched, cond="obj", guidance=w, x_init=x0)
        assert x0.tobytes() == before and not np.shares_memory(out, x0)
        point = ddim_sample(den, sched, cond="obj", guidance=w, x_init=x0[5])
        assert x0.tobytes() == before and point.shape == (256,)
        row = ddim_sample(den, sched, cond="obj", guidance=w, x_init=x0[5:6])
        assert same_bits(point, row[0])

    def test_without_null_token_rejected(self):
        mix = GaussianMixture([1.0], [[0.0]], [1.0])
        den = GaussianMixtureDenoiser({"obj": mix})
        with pytest.raises(ValueError, match="no mixture registered for token None"):
            den.guided(np.zeros((2, 1)), 1.0, "obj", 2.0)
        with pytest.raises(ValueError, match="no mixture registered for token None"):
            ddim_sample(den, make_sigma_schedule(10.0, 0.01, 3), cond="obj", guidance=2.0,
                        x_init=np.zeros((2, 1)))

    def test_unknown_token_rejected(self):
        mix = GaussianMixture([1.0], [[0.0]], [1.0])
        den = GaussianMixtureDenoiser({None: mix})
        with pytest.raises(ValueError, match="no mixture registered for token 'obj'"):
            den.guided(np.zeros((2, 1)), 1.0, "obj", 2.0)

    def test_non_finite_guidance_rejected(self):
        mix = GaussianMixture([1.0], [[0.0]], [1.0])
        den = GaussianMixtureDenoiser({None: mix, "obj": mix})
        with pytest.raises(ValueError, match="guidance must be finite"):
            den.guided(np.zeros((2, 1)), 1.0, "obj", math.nan)


class TestDenoiserInputs:
    def test_unequal_dims_rejected(self):
        with pytest.raises(ValueError, match=r"same dim, got dims \[1, 2\]"):
            GaussianMixtureDenoiser({
                "obj": GaussianMixture([1.0], [[0.0, 0.0]], [1.0]),
                None: GaussianMixture([1.0], [[0.0]], [1.0]),
            })

    def test_mixtures_read_only(self):
        mix = GaussianMixture([1.0], [[0.0]], [1.0])
        source = {None: mix}
        den = GaussianMixtureDenoiser(source)
        with pytest.raises(TypeError):
            den.mixtures["obj"] = mix
        source["obj"] = mix  # the caller's mapping is not the denoiser's
        assert list(den.mixtures) == [None]


class TestDsmLoss:
    def test_posterior_mean_beats_perturbed(self):
        # Optimality of the posterior mean at each of a few noise levels: a
        # fixed additive offset must strictly increase the paired MC estimate
        # of the denoising loss E[lambda(sigma) ||D(x0 + n; sigma) - x0||^2],
        # lambda = (1 + sigma^2) / sigma^2.
        mix = GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.05, 0.05])

        def loss(offset, sigma, seed, n_draws=10_000):
            rng = np.random.default_rng(seed)
            x0 = mix.sample(rng, n_draws)
            x = x0 + sigma * rng.standard_normal(x0.shape)
            sq = np.sum((mix.posterior_mean(x, sigma) + offset - x0) ** 2, axis=1)
            return np.mean((1.0 + sigma * sigma) / (sigma * sigma) * sq)

        for sigma in (0.2, 0.6, 1.8):
            diffs = []
            for seed in range(5):
                l0, l1 = loss(0.0, sigma, seed), loss(0.1, sigma, seed)
                assert l1 > l0
                diffs.append(l1 - l0)
            diffs = np.asarray(diffs)
            se = diffs.std(ddof=1) / math.sqrt(len(diffs))
            assert diffs.mean() > 2.0 * se


class TestSigmaSchedule:
    def test_two_steps(self):
        sched = make_sigma_schedule(3.0, 1.0, 2, rho=7.0)
        np.testing.assert_allclose(sched.sigmas, [3.0, 1.0, 0.0])

    def test_linear_when_rho_one(self):
        sched = make_sigma_schedule(3.0, 1.0, 3, rho=1.0)
        np.testing.assert_allclose(sched.sigmas, [3.0, 2.0, 1.0, 0.0])

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            hi = float(rng.uniform(10, 100))
            lo = float(rng.uniform(1e-3, 0.5))
            n = int(rng.integers(1, 80))
            sched = make_sigma_schedule(hi, lo, n, rho=float(rng.uniform(0.5, 9)))
            assert np.all(np.diff(sched.sigmas) < 0)
            assert sched.sigmas[-1] == 0.0

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            make_sigma_schedule(1.0, 2.0, 10)
        with pytest.raises(ValueError):
            SigmaSchedule(np.array([1.0, 2.0, 0.0]))
        with pytest.raises(ValueError):
            SigmaSchedule(np.array([2.0, 1.0, 0.5]))

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"rho": math.nan}, "rho"), ({"rho": math.inf}, "rho"), ({"rho": 0.0}, "rho"),
         ({"rho": -2.0}, "rho"), ({"sigma_max": math.inf}, "sigma_max"),
         ({"sigma_max": math.nan}, "sigma_max")],
        ids=["rho-nan", "rho-inf", "rho-zero", "rho-negative", "sigma_max-inf", "sigma_max-nan"],
    )
    def test_bad_argument_named(self, kwargs, name):
        # Warnings are errors here, so a check that runs after the power law
        # has warned about NaN would not be reached.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_sigma_schedule(**kwargs)


class TestDdimSample:
    def test_single_step_zero_denoiser(self):
        sched = SigmaSchedule(np.array([5.0, 0.0]))
        out = ddim_sample(
            lambda x, s, c=None: np.zeros_like(x),
            sched,
            x_init=np.array([3.7]),
        )
        np.testing.assert_allclose(out, [0.0], atol=1e-15)

    def test_single_gaussian_target_statistics(self):
        # Sampler consistency: the probability-flow ODE with the analytic
        # denoiser must transport N(0, sigma_max^2) onto the data Gaussian.
        # The noise range is sized to the toy data scale; a first-order
        # Euler chain at 50 steps needs sigma_max commensurate with the
        # data std to stay within the stated tolerances.
        mu = np.array([1.2, -0.7])
        var = 0.25
        mix = GaussianMixture([1.0], [mu], [var])
        sched = make_sigma_schedule(20.0, 0.02, 50, rho=7.0)
        rng = np.random.default_rng(123)
        out = ddim_sample(
            lambda x, s, c=None: mix.posterior_mean(x, s),
            sched,
            x_init=sched[0] * rng.standard_normal((10_000, 2)),
        )
        mean = out.mean(axis=0)
        std = out.std(axis=0)
        for a in range(2):
            assert abs(mean[a] - mu[a]) <= 0.03 * abs(mu[a]) + 0.02
            assert abs(std[a] - math.sqrt(var)) <= 0.05 * math.sqrt(var)

    def test_unit_guidance_bitwise_equals_conditional(self):
        mix_c = GaussianMixture([1.0], [[1.0]], [0.3])
        mix_u = GaussianMixture([1.0], [[-9.0]], [2.0])
        den = GaussianMixtureDenoiser({"obj": mix_c, None: mix_u})
        sched = make_sigma_schedule(10.0, 0.01, 12)
        x0 = np.array([0.5])
        a = ddim_sample(den, sched, cond="obj", guidance=1.0, x_init=x0)
        b = ddim_sample(den, sched, cond="obj", x_init=x0)
        assert a.tobytes() == b.tobytes()

    def test_pure_function_bitwise(self):
        mix = GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.1, 0.1])
        den = GaussianMixtureDenoiser({None: mix})
        sched = make_sigma_schedule(30.0, 0.01, 25)
        x0 = np.random.default_rng(5).standard_normal((4, 1)) * 30.0
        a = ddim_sample(den, sched, x_init=x0, guidance=1.0)
        b = ddim_sample(den, sched, x_init=x0, guidance=1.0)
        assert a.tobytes() == b.tobytes()

    def test_list_guidance_rejected(self):
        mix = GaussianMixture([1.0], [[0.0]], [1.0])
        den = GaussianMixtureDenoiser({None: mix})
        sched = make_sigma_schedule(10.0, 0.01, 2)
        with pytest.raises(ValueError, match="guidance"):
            ddim_sample(den, sched, x_init=np.zeros(1), guidance=[1.0, 2.0])

    def test_nan_denoiser_rejected(self):
        with pytest.raises(ValueError, match="sampled state is not finite"):
            ddim_sample(lambda x, s, c=None: np.full_like(x, math.nan),
                        make_sigma_schedule(10.0, 0.01, 5), x_init=np.ones((3, 2)))

    def test_overflowing_chain_rejected(self):
        # numpy's overflow warnings are errors under this suite; they are
        # silenced so that the sampler's own check is what reports.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="sampled state is not finite"):
            ddim_sample(lambda x, s, c=None: -1e300 * x,
                        make_sigma_schedule(10.0, 0.01, 5), x_init=np.ones((3, 2)))


class TestEulerOrder:
    """Euler's global error against the closed-form flow of one Gaussian N(mu, v), under
    which x(sigma) - mu = (x_init - mu) sqrt((v + sigma^2) / (v + sigma_max^2))."""

    @pytest.mark.parametrize("route", ["factors", "plain"])
    def test_error_halves_per_doubling(self, route):
        rng = np.random.default_rng(11)
        mu, v = rng.standard_normal(16), 0.2
        gm = GaussianMixtureDenoiser({None: GaussianMixture([1.0], [mu], [v])})
        den = gm if route == "factors" else (lambda x, s, c=None: gm(x, s, c))
        x_init = 80.0 * rng.standard_normal((8, 16))
        exact = mu + (x_init - mu) * math.sqrt(v / (v + 80.0**2))
        errors = np.array([
            np.max(np.abs(ddim_sample(den, make_sigma_schedule(80.0, n_steps=n),
                                      x_init=x_init) - exact))
            for n in (25, 50, 100, 200, 400)
        ])
        ratios = errors[:-1] / errors[1:]
        assert ((1.9 <= ratios) & (ratios <= 2.1)).all(), ratios


class TestCfgCombine:
    def test_w_one_is_conditional(self):
        dc = np.array([1.0, 2.0, -0.5])
        du = np.array([9.0, -9.0, 9.0])
        out = cfg_combine(dc, du, 1.0)
        assert out.tobytes() == dc.tobytes()

    def test_w_zero_is_unconditional(self):
        dc = np.array([1.0])
        du = np.array([4.0])
        np.testing.assert_array_equal(cfg_combine(dc, du, 0.0), du)

    def test_extrapolation(self):
        assert cfg_combine(np.array([1.0]), np.array([0.0]), 2.0)[0] == 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cfg_combine(np.zeros(2), np.zeros(3), 1.5)

    @pytest.mark.parametrize("w", [0.0, 1.0, 1.95, 2.9, -0.5])
    def test_bits_of_the_formula(self, w):
        rng = np.random.default_rng(5)
        dc, du = rng.standard_normal((2, 64, 256)) * 100.0
        assert same_bits(cfg_combine(dc, du, w), w * dc - (w - 1.0) * du)


class TestGuidanceSchedule:
    def test_triangular_endpoints_and_peak(self):
        assert GuidanceSchedule("triangular", 1.0, 2.5, 21).at(0) == 1.0
        assert GuidanceSchedule("triangular", 1.0, 2.5, 20).at(10) == 2.5

    def test_linear_endpoints(self):
        assert GuidanceSchedule("linear", 1.0, 4.0, 2).at(0) == 1.0
        assert GuidanceSchedule("linear", 1.0, 4.0, 2).at(1) == 4.0

    def test_constant(self):
        assert GuidanceSchedule("constant", 1.0, 3.5, 7).at(3) == 3.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GuidanceSchedule("triangular", 1.0, 2.5, 10).at(10)
        with pytest.raises(ValueError):
            GuidanceSchedule("triangular", 1.0, 2.5, 10).at(-1)

    @pytest.mark.parametrize("i", [2.5, 2.0, "2", None], ids=["fractional", "float", "str", "none"])
    def test_non_integer_frame_rejected(self, i):
        with pytest.raises(ValueError, match="frame index"):
            GuidanceSchedule("triangular", 1.0, 2.5, 10).at(i)

    def test_numpy_integer_frame_accepted(self):
        sched = GuidanceSchedule("triangular", 1.0, 2.5, 10)
        assert sched.at(np.int64(3)) == sched.at(3)

    @pytest.mark.parametrize(
        "kind, w_min, w_max, k",
        [("linear", 1.0, 2.0, 1), ("linear", -3.0, 2.0, 5), ("triangular", 1.0, -0.5, 5),
         ("constant", 1.0, 2.0, 0), ("cosine", 1.0, 2.0, 5), ("triangular", 1.0, 2.0, 2.5)],
        ids=["linear-k1", "negative-w_min", "negative-w_max", "k0", "unknown-kind",
             "k-not-integer"],
    )
    def test_rejected_at_construction(self, kind, w_min, w_max, k):
        with pytest.raises(ValueError):
            GuidanceSchedule(kind, w_min, w_max, k)

    def test_numpy_integer_k_accepted(self):
        values = GuidanceSchedule("triangular", 1.0, 2.0, np.int64(3)).values()
        np.testing.assert_array_equal(values, GuidanceSchedule("triangular", 1.0, 2.0, 3).values())

    @given(st.integers(min_value=2, max_value=60))
    @settings(max_examples=50, deadline=None)
    def test_triangular_symmetry_and_bounds(self, k):
        sched = GuidanceSchedule("triangular", 1.0, 2.5, k)
        vals = sched.values()
        assert vals[0] == 1.0
        assert np.all(vals >= 1.0) and np.all(vals <= 2.5)
        # s(i) == s(k - i) for indices where both sides are valid frames.
        for i in range(1, k):
            assert sched.at(i) == pytest.approx(sched.at(k - i), abs=1e-12)
        # The maximum sits at the frame(s) nearest u = 0.5.
        nearest = int(round(k / 2.0))
        nearest = min(nearest, k - 1)
        assert vals.max() == pytest.approx(sched.at(nearest))


_SCHEDULE = make_sigma_schedule(10.0, 0.01, 3)
_MIXTURE = GaussianMixture([1.0], [[0.0]], [1.0])
_DENOISER = GaussianMixtureDenoiser({None: _MIXTURE, "obj": _MIXTURE})


class TestRejectsNonFinite:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: GaussianMixture([1.0, math.nan], [[0.0], [1.0]], [1.0, 1.0]),
            lambda: GaussianMixture([1.0, math.inf], [[0.0], [1.0]], [1.0, 1.0]),
            lambda: GaussianMixture([1.0], [[math.nan]], [1.0]),
            lambda: GaussianMixture([1.0], [[0.0]], [math.inf]),
            lambda: SigmaSchedule(np.array([80.0, math.nan, 0.0])),
            lambda: SigmaSchedule(np.array([math.inf, 1.0, 0.0])),
            lambda: GuidanceSchedule("triangular", math.nan, 2.0, 5),
            lambda: GuidanceSchedule("triangular", 1.0, math.inf, 5),
            lambda: ddim_sample(_DENOISER, _SCHEDULE, x_init=np.zeros(1), guidance=math.nan),
            lambda: ddim_sample(_DENOISER, _SCHEDULE, x_init=np.array([0.0, math.nan])),
            lambda: _MIXTURE.posterior_mean(np.zeros(1), math.nan),
            lambda: _MIXTURE.posterior_mean(np.zeros((2, 1)), np.array([1.0, math.nan])),
            lambda: _MIXTURE.log_marginal(np.zeros((2, 1)), math.nan),
            lambda: _MIXTURE.posterior_mean(np.zeros(1), math.inf),
            lambda: _MIXTURE.log_marginal(np.zeros(1), math.inf),
            lambda: _MIXTURE.posterior_mean(np.array([math.nan]), 0.5),
            lambda: _MIXTURE.posterior_mean(np.array([[0.3], [math.inf]]), 0.5),
            lambda: _MIXTURE.log_marginal(np.array([math.nan]), 0.5),
            lambda: _MIXTURE.log_marginal(np.array([[0.3], [-math.inf]]), 0.5),
            lambda: _DENOISER.guided(np.array([math.nan]), 0.5, "obj", 2.0),
            lambda: _DENOISER.guided(np.array([[0.3], [math.inf]]), 0.5, "obj", 2.0),
        ],
        ids=["gm-weight-nan", "gm-weight-inf", "gm-mean-nan", "gm-variance-inf",
             "schedule-nan", "schedule-inf", "guidance-w_min-nan", "guidance-w_max-inf",
             "ddim-guidance-nan", "ddim-x_init-nan",
             "gm-denoiser-sigma-nan", "gm-denoiser-row-sigma-nan",
             "log-marginal-sigma-nan", "gm-denoiser-sigma-inf", "log-marginal-sigma-inf",
             "posterior-x-nan", "posterior-x-inf", "log-marginal-x-nan", "log-marginal-x-neg-inf",
             "guided-x-nan", "guided-x-inf"],
    )
    def test_rejected(self, make):
        with pytest.raises(ValueError):
            make()
