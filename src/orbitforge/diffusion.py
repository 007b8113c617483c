"""Continuous-time diffusion machinery with analytic oracles.

Implements power-law sigma schedules and a deterministic Euler sampler for
the probability-flow ODE with one classifier-free-guidance strength per call
(``ddim_sample``); per-frame strengths of an orbit come from
``GuidanceSchedule``.  A Gaussian-mixture data distribution has a closed-form
optimal denoiser, ``GaussianMixture.posterior_mean``, which
``GaussianMixtureDenoiser`` serves per conditioning token and the test suite
uses to verify the sampler without any trained network; its ``guided`` gives a
CFG step's blend in one pass.  Both are the one-step case of the one route a
mixture's prediction takes, ``GaussianMixture._chain``, which also runs
``ddim_sample``'s chains of a mixture in the span of x_init and the means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Mapping

import numpy as np

from ._checks import is_integer

__all__ = [
    "GaussianMixture",
    "GaussianMixtureDenoiser",
    "GuidanceSchedule",
    "SigmaSchedule",
    "make_sigma_schedule",
    "ddim_sample",
    "cfg_combine",
]


class GaussianMixture:
    """Isotropic Gaussian mixture used as an analytic data distribution.

    Components are (weight, mean, variance) with scalar variance per
    component; weights are normalized on construction.
    """

    def __init__(self, weights, means, variances):
        weights = np.asarray(weights, dtype=np.float64)
        means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        variances = np.asarray(variances, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("mixture needs at least one component")
        if means.ndim != 2:
            raise ValueError(f"means must be a (K, dim) array, got shape {means.shape}")
        if not all(np.isfinite(a).all() for a in (weights, means, variances)):
            raise ValueError("weights, means and variances must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be >= 0")
        total = weights.sum()
        if total <= 0.0:
            raise ValueError("weights must have a positive sum")
        if means.shape[0] != weights.size or variances.shape != weights.shape:
            raise ValueError("weights, means and variances must align")
        if np.any(variances < 0.0):
            raise ValueError("variances must be >= 0")
        self.weights = weights / total
        self.means = means
        self.variances = variances
        # The log-joint's constants, O(K d) each.  A zero weight is ln 0 = -inf: that
        # component never carries posterior mass.
        self._centroid = means.mean(axis=0)
        self._centred = means - self._centroid
        self._centred_sq = np.einsum("kd,kd->k", self._centred, self._centred)
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(self.weights)

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return self.weights.size

    def sample(self, rng, n):
        if not is_integer(n) or n < 0:
            raise ValueError(f"sample count n must be an integer >= 0, got {n!r}")
        comp = rng.choice(self.n_components, size=n, p=self.weights)
        noise = rng.standard_normal((n, self.dim))
        return self.means[comp] + np.sqrt(self.variances[comp])[:, None] * noise

    def _followed_by(self, other):
        """This mixture's components then ``other``'s around one centroid, each block with its
        own log-weights (renormalising the union would only round them), and the split."""
        if other is self:  # w D - (w - 1) D = D needs no table
            return self, None
        union = GaussianMixture(*(np.concatenate([getattr(self, name), getattr(other, name)])
                                  for name in ("weights", "means", "variances")))
        union._log_weights = np.concatenate([self._log_weights, other._log_weights])
        return union, self.n_components

    def _batch(self, x):
        """``x`` as a finite (n, dim) float64 batch (a view where it can be), or a named error."""
        shape = np.shape(x)
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(
                f"x must be one point or an (n, dim) batch with the mixture's dim "
                f"{self.dim}, got shape {shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        return x

    def _sigma_terms(self, sigma):
        """The log-joint's sigma-only terms s2 = v + sigma^2 and dim ln(2 pi s2): (K,) for one
        sigma, and one row per sigma for the sampler's column of them."""
        s2 = self.variances + sigma * sigma
        if not (s2 > 0.0).all():
            raise ValueError(
                "v_k + sigma^2 is 0: a zero-variance component has no density at sigma = 0"
            )
        return s2, self.dim * np.log(2.0 * np.pi * s2)

    def _centred_terms(self, x):
        """prod = (x - c) @ (means - c).T, (n, K), and sq = ||x - c||^2, (n, 1), of a checked
        batch x about the means' centroid c, which keeps the cancellation in ||x - mu_k||^2 to
        rounding of the spread of x and the means about c, not of their distance from 0."""
        xc = x - self._centroid
        return xc @ self._centred.T, np.einsum("nd,nd->n", xc, xc)[:, None]

    def _joint_from(self, prod, sq, s2, log_norm):
        """The unshifted (n, K) log-joint ln(w_k N(x; mu_k, s2_k I)) from x's ``_centred_terms``
        and the ``_sigma_terms``, built in place in prod; the tests hold it to the dense
        difference formula (means offset up to 100, sigma from 80 down to 0.002)."""
        # -0.5 * (dim ln(2 pi s2) + max(|xc|^2 - 2 prod + |mu_c|^2, 0) / s2) + ln w, in order.
        prod *= 2.0
        np.subtract(sq, prod, out=prod)
        prod += self._centred_sq
        np.maximum(prod, 0.0, out=prod)
        prod /= s2
        prod += log_norm
        prod *= -0.5
        prod += self._log_weights
        return prod

    def log_marginal(self, x, sigma):
        """ln p(x; sigma) of the sigma-smoothed mixture (closed form) at one noise level."""
        joint = self._joint_from(*self._centred_terms(self._batch(x)),
                                 *self._sigma_terms(_noise_level(sigma)))
        top = _shift_rows(joint)
        out = top[:, 0] + np.log(np.sum(np.exp(joint), axis=1))
        return out if np.asarray(x).ndim > 1 else float(out[0])

    def posterior_mean(self, x, sigma):
        """Exact posterior mean E[x0 | x0 + n = x] with n ~ N(0, sigma^2 I).

        This is the global minimizer of the denoising-score-matching objective
        and serves as the stand-in for a trained denoiser.  ``sigma`` is one
        noise level for the whole of ``x``, a finite number >= 0; at sigma = 0
        the point is noiseless and comes back as a copy of x.  ``x`` is one
        finite point or an (n, dim) batch, and is never written.
        """
        return self._posterior_mean(x, sigma)

    def _posterior_mean(self, x, sigma, split=None, w=1.0):
        """D^w(x; sigma), the one-step chain, or a copy of x at sigma = 0."""
        sigma = _noise_level(sigma)
        if sigma > 0.0:
            return self._chain(x, np.array([sigma, 0.0]), split, w)
        return self._batch(x).copy().reshape(np.shape(x))

    def _chain(self, x, sigmas, split=None, w=1.0):
        """Euler steps x_{i+1} = x_i + c_i (x_i - D^w(x_i; sigma_i)), c_i = (sigma_{i+1} -
        sigma_i) / sigma_i, down ``sigmas`` (ending at 0) from x, one point or a batch that is
        never written: the state at sigma = 0, in x's shape.  As D^w(x) = kappa x + Q @ means
        (``_factors``), each state is x_i = alpha x_0 + B @ means, carried as alpha (n, 1) and
        B (n, K): alpha *= a, B = a B - c_i Q with a = kappa (-c_i) + 1 + c_i.  As kappa +
        rowsum(Q) = 1, so is alpha + rowsum(B), and x_i's ``_centred_terms`` follow from x_0's
        and the (K, K) Gram matrix of the centred means: a step costs O(n K^2), not O(n dim K)
        (more only if K > dim; the benchmark has K = 24 in dim = 256), and a chain makes one
        output product.  Step 0 reads x_0's terms exactly and c = -1 at the last step, so the
        chain [sigma, 0] gives D^w(x; sigma)'s bits."""
        batch = self._batch(x)
        s2, log_norm = self._sigma_terms(sigmas[:-1, None])
        keep = self.variances / s2
        p0, sq0 = self._centred_terms(batch)
        gram = self._centred @ self._centred.T
        alpha = np.ones_like(sq0)
        b = np.zeros_like(p0)
        for i, c in enumerate(((sigmas[1:] - sigmas[:-1]) / sigmas[:-1]).tolist()):
            ap = alpha * p0
            prod = ap + b @ gram
            # ||x_i - c||^2 = alpha^2 sq0 + 2 alpha rowsum(B P0) + rowsum(B (B @ gram)), as
            # prod + ap = 2 alpha P0 + B @ gram; taken before the log-joint overwrites prod.
            sq = alpha * alpha * sq0 + np.einsum("nk,nk->n", b, prod + ap)[:, None]
            kappa, q = self._factors(self._joint_from(prod, sq, s2[i], log_norm[i]), keep[i],
                                     split, w)
            kappa *= -c
            kappa += 1.0 + c
            alpha *= kappa
            b *= kappa
            q *= -c
            b += q
        out = alpha * batch
        out += b @ self.means
        return out.reshape(np.shape(x))

    def _factors(self, joint, keep, split=None, w=1.0):
        """The posterior mean kappa x + Q @ means as (kappa, Q), (n, 1) and (n, K), from the
        log-joint, which becomes Q in place, and keep = v / s2.  With ``split`` it is
        w D_A + (1 - w) D_B of components A = [:split] and B = [split:], each block's
        softmax shifted by its own row maximum (a shared one could underflow it to 0/0)."""
        blocks = (((joint, 1.0),) if split is None
                  else ((joint[:, :split], w), (joint[:, split:], 1.0 - w)))
        for block, scale in blocks:  # the log-joint becomes the responsibilities in place
            _shift_rows(block)
            np.exp(block, out=block)
            block /= block.sum(axis=1, keepdims=True)
            block *= scale
        # r_k s_k, the share of x that component k keeps (s_k = v_k / (v_k + sigma^2)).
        kept = joint * keep
        joint -= kept
        return kept.sum(axis=1, keepdims=True), joint


def _noise_level(sigma):
    """``sigma`` as one float, finite and >= 0, or a named error: one noise level per call."""
    if np.ndim(sigma) != 0:
        raise ValueError(f"sigma must be one number per call, got shape {np.shape(sigma)}")
    sigma = float(sigma)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    return sigma


def _guidance(w):
    """``w`` as one finite float, or a named error.  Python counts a bool as a number, but
    not as a CFG strength."""
    number = isinstance(w, (int, float, np.integer, np.floating)) and not isinstance(w, bool)
    if not (number and math.isfinite(w)):
        raise ValueError(f"guidance must be finite, one number and not a bool, got {w!r}")
    return float(w)


def _shift_rows(joint):
    """Subtract each row's maximum from the (n, K) ``joint`` in place and return them, (n, 1):
    over a (K, n) copy that is K - 1 whole-row maxima, exact in any order."""
    top = np.ascontiguousarray(joint.T).max(axis=0)[:, None]
    joint -= top
    return top


class GaussianMixtureDenoiser:
    """Conditional analytic denoiser: an opaque token selects the mixture.

    The ``None`` token is the designated null/unconditional path used by
    classifier-free guidance; ``guided`` reads one table per token built here, its
    components then the null one's, so ``mixtures`` (of one dim) is read-only.
    ``ddim_sample`` reads the same tables, or the conditional mixture alone at
    w = 1, and calls neither ``guided`` nor the denoiser itself.
    """

    def __init__(self, mixtures: Mapping[Hashable, GaussianMixture]):
        if not mixtures:
            raise ValueError("need at least one mixture")
        if len(dims := sorted({m.dim for m in mixtures.values()})) > 1:
            raise ValueError(f"every mixture must have the same dim, got dims {dims}")
        self.mixtures = MappingProxyType(dict(mixtures))
        null = self.mixtures.get(None)
        self._guided = {t: m._followed_by(null) for t, m in mixtures.items() if null is not None}

    def _lookup(self, table, token):
        try:
            return table[token]
        except KeyError:
            raise ValueError(f"no mixture registered for token {token!r}") from None

    def __call__(self, x, sigma, cond=None):
        return self._lookup(self.mixtures, cond).posterior_mean(x, sigma)

    def guided(self, x, sigma, cond, w):
        """w D_cond - (w - 1) D_null at (x, sigma) from one log-joint and one output product:
        ``cfg_combine`` of the two calls up to rounding.  ``x`` is never written."""
        w = _guidance(w)
        union, split = self._union(cond)
        return union._posterior_mean(x, sigma, split, w)

    def _union(self, cond):
        """The table ``guided`` reads for ``cond`` and its split."""
        self._lookup(self.mixtures, None)  # named error when there is no null token
        return self._lookup(self._guided, cond)


@dataclass(frozen=True)
class SigmaSchedule:
    """Strictly decreasing noise levels ending exactly at zero."""

    sigmas: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigmas, dtype=np.float64)
        object.__setattr__(self, "sigmas", sig)
        if sig.ndim != 1 or sig.size < 2:
            raise ValueError("schedule needs at least [sigma_max, 0]")
        if not np.isfinite(sig).all():
            raise ValueError("schedule must be finite")
        if sig[-1] != 0.0:
            raise ValueError("schedule must end at exactly 0")
        if np.any(np.diff(sig) >= 0.0):
            raise ValueError("schedule must be strictly decreasing")

    @property
    def n_steps(self):
        return self.sigmas.size - 1

    def __getitem__(self, i):
        return float(self.sigmas[i])


def make_sigma_schedule(sigma_max=80.0, sigma_min=0.002, n_steps=50, rho=7.0):
    """Power-law spacing between sigma_max and sigma_min plus a final zero.

    sigma_i = (sigma_max^(1/rho) + i/(n-1) * (sigma_min^(1/rho)
    - sigma_max^(1/rho)))^rho for i < n, sigma_n = 0.
    """
    if not sigma_max < math.inf:
        raise ValueError(f"sigma_max must be finite, got {sigma_max!r}")
    if not (sigma_max > sigma_min > 0.0):
        raise ValueError("need sigma_max > sigma_min > 0")
    if not is_integer(n_steps) or n_steps < 1:
        raise ValueError("n_steps must be an integer >= 1")
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and > 0, got {rho!r}")
    if n_steps == 1:
        body = np.array([sigma_max])
    else:
        hi = sigma_max ** (1.0 / rho)
        lo = sigma_min ** (1.0 / rho)
        t = np.arange(n_steps, dtype=np.float64) / (n_steps - 1)
        body = (hi + t * (lo - hi)) ** rho
    return SigmaSchedule(np.concatenate([body, [0.0]]))


def cfg_combine(d_cond, d_uncond, w):
    """Classifier-free guidance: w * D_cond - (w - 1) * D_uncond."""
    d_cond = np.asarray(d_cond, dtype=np.float64)
    d_uncond = np.asarray(d_uncond, dtype=np.float64)
    if d_cond.shape != d_uncond.shape:
        raise ValueError(
            f"conditional {d_cond.shape} and unconditional {d_uncond.shape} "
            "predictions must have the same shape"
        )
    out = w * d_cond
    return np.subtract(out, (w - 1.0) * d_uncond, out=out)


def ddim_sample(denoiser, schedule, *, x_init, cond=None, guidance=1.0):
    """Deterministic Euler integration of the probability-flow ODE.

    x_{i+1} = x_i + c_i (x_i - D^w(x_i; sigma_i)) with c_i = (sigma_{i+1} - sigma_i) /
    sigma_i, returning the state at sigma = 0.  ``guidance`` is the one CFG strength w of
    the whole chain, a finite number and not a bool; ``x_init`` must be finite and is never
    written, and a final state that is not finite (a denoiser returned NaN or inf, or the
    chain overflowed) raises ValueError.  The chain is a pure function of (x_init, schedule,
    cond, guidance).

    A ``GaussianMixtureDenoiser`` is not called: its table (the conditional mixture alone
    at w = 1) runs the chain in ``GaussianMixture._chain``, the route its predictions take,
    so a one-step chain gives D^w's bits.  Any other callable is called once per step at
    w = 1, where D^w is the conditional prediction alone, bit for bit, and otherwise twice,
    joined by ``cfg_combine``; as it may keep its x, each step is a new array, and no array
    a denoiser saw or returned is written.
    """
    w = _guidance(guidance)
    sig = schedule.sigmas
    x = np.asarray(x_init, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("x_init must be finite")
    if isinstance(denoiser, GaussianMixtureDenoiser):
        mix, split = ((denoiser._lookup(denoiser.mixtures, cond), None) if w == 1.0
                      else denoiser._union(cond))
        x = mix._chain(x, sig, split, w)
    else:
        for i in range(schedule.n_steps):
            s_cur = sig[i]
            s_next = sig[i + 1]
            # At w = 1 D^w is the conditional prediction alone, bit for bit.
            if w == 1.0:
                d_val = np.asarray(denoiser(x, s_cur, cond), dtype=np.float64)
            else:
                d_val = cfg_combine(denoiser(x, s_cur, cond), denoiser(x, s_cur, None), w)
            step = x - d_val
            step *= s_next - s_cur
            step /= s_cur
            step += x
            x = step
    if not np.isfinite(x).all():
        raise ValueError(
            "sampled state is not finite: a denoiser returned NaN or inf, or the chain overflowed"
        )
    return x


GUIDANCE_KINDS = ("constant", "linear", "triangular")


@dataclass(frozen=True)
class GuidanceSchedule:
    """Frame-indexed CFG strengths for a k-frame orbit.

    constant: w_max everywhere.  linear: ramp from w_min at frame 0 to
    w_max at frame k-1 (needs k >= 2).  triangular: tent over u = i/k, so
    frame 0 sits at w_min and the loop closes at the conditioning view with
    the peak at u = 0.5.
    """

    kind: str
    w_min: float
    w_max: float
    k: int

    def __post_init__(self):
        if self.kind not in GUIDANCE_KINDS:
            raise ValueError(f"unknown guidance kind {self.kind!r}")
        if not (_guidance(self.w_min) >= 0.0 and _guidance(self.w_max) >= 0.0):
            raise ValueError("guidance strengths must be >= 0")
        k_min = 2 if self.kind == "linear" else 1
        if not is_integer(self.k) or self.k < k_min:
            raise ValueError(f"{self.kind} schedule needs an integer k >= {k_min}")

    def at(self, i):
        """CFG strength of frame i."""
        if not is_integer(i) or not 0 <= i < self.k:
            raise ValueError(f"frame index {i!r} must be an integer in [0, {self.k})")
        w_min, w_max, k = self.w_min, self.w_max, self.k
        if self.kind == "constant":
            return float(w_max)
        if self.kind == "linear":
            return float(w_min + (w_max - w_min) * (i / (k - 1)))
        return float(w_min + (w_max - w_min) * (1.0 - abs(2.0 * i / k - 1.0)))

    def values(self):
        return np.array([self.at(i) for i in range(self.k)])
