"""Continuous-time diffusion machinery with analytic oracles.

Implements power-law sigma schedules and a deterministic Euler sampler for
the probability-flow ODE with one classifier-free-guidance strength per call
(``ddim_sample``); per-frame strengths of an orbit come from
``GuidanceSchedule``.  A Gaussian-mixture data distribution has a closed-form
optimal denoiser, ``GaussianMixture.posterior_mean``, which
``GaussianMixtureDenoiser`` serves per conditioning token and the test suite
uses to verify the sampler without any trained network; its ``guided`` gives a
CFG step's blend in one pass.  That blend is affine in x, so ``ddim_sample``
steps a mixture's chain from its factors, one output product per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Mapping

import numpy as np

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
        # _joint's constants, O(K d) each.  A zero weight is ln 0 = -inf:
        # that component never carries posterior mass.
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
        if not isinstance(n, (int, np.integer)) or n < 0:
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

    def _joint(self, x, s2, log_norm):
        """ln(w_k N(x; mu_k, s2_k I)) per row of a checked batch x and component k: the
        unshifted (n, K) log-joint from the ``_sigma_terms`` s2 = v + sigma^2 and log_norm.

        No (n, K, dim) array is built.  The squared distances come from one
        (n, dim) @ (dim, K) product, taken around the centroid c of the means:
        ||x - mu_k||^2 = ||x - c||^2 - 2 (x - c).(mu_k - c) + ||mu_k - c||^2,
        clipped at 0, and the log-joint is then built inside that product's
        array.  Centring keeps the cancellation to rounding of the
        spread of x and the means about c, not of their distance from the
        origin.  Without the offsets x - mu_k, ``posterior_mean`` is the second
        product: with responsibilities r_k and s_k = v_k / (v_k + sigma^2),
        sum_k r_k (mu_k + s_k (x - mu_k)) = (sum_k r_k s_k) x + (r * (1 - s)) @ mu.
        The test suite holds both, against the dense difference formula over
        means offset up to 100 and sigma from 80 down to 0.002, to 1e-10 of
        the largest |entry| on ``log_marginal`` and 1e-12 on ``posterior_mean``.
        """
        xc = x - self._centroid
        joint = xc @ self._centred.T
        # Element by element the same operations, in the same order, as
        # -0.5 * (dim ln(2 pi s2) + max(|xc|^2 - 2 prod + |mu_c|^2, 0) / s2) + ln w.
        joint *= 2.0
        np.subtract(np.einsum("nd,nd->n", xc, xc)[:, None], joint, out=joint)
        joint += self._centred_sq
        np.maximum(joint, 0.0, out=joint)
        joint /= s2
        joint += log_norm
        joint *= -0.5
        joint += self._log_weights
        return joint

    def log_marginal(self, x, sigma):
        """ln p(x; sigma) of the sigma-smoothed mixture (closed form) at one noise level."""
        joint = self._joint(self._batch(x), *self._sigma_terms(_noise_level(sigma)))
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
        batch = self._batch(x)
        sigma = _noise_level(sigma)
        if sigma == 0.0:
            out = batch.copy()
        else:
            s2, log_norm = self._sigma_terms(sigma)
            kappa, q = self._factors(self._joint(batch, s2, log_norm), self.variances / s2,
                                     split, w)
            out = kappa * batch
            out += q @ self.means
        return out[0] if np.ndim(x) == 1 else out

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
        # r_k s_k, the share of x that component k keeps (see _joint).
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
        if not math.isfinite(w):
            raise ValueError(f"guidance must be finite, got {w!r}")
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
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
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
    the whole chain, a finite number; ``x_init`` must be finite and is never written, and a
    final state that is not finite (a denoiser returned NaN or inf, or the chain overflowed)
    raises ValueError.  The chain is a pure function of (x_init, schedule, cond, guidance).

    A ``GaussianMixtureDenoiser`` is not called.  Its D^w(x) = kappa x + Q @ means is
    affine in x, so a step is x_{i+1} = (kappa (-c_i) + 1 + c_i) x_i + (-c_i Q) @ means: one
    output product from the mixture's factors, in place on one state array.  The table (the
    conditional mixture alone at w = 1), the checks and the log-joint's sigma-only terms are
    taken once per chain; c = -1 at the last step gives a one-step chain D^w's bits.  Any
    other callable is called once per step at w = 1, where D^w is the conditional prediction
    alone, bit for bit, and otherwise twice, joined by ``cfg_combine``; as it may keep its x,
    each step is a new array, and no array a denoiser saw or returned is written.
    """
    number = isinstance(guidance, (int, float, np.integer, np.floating))
    if not (number and math.isfinite(guidance)):
        raise ValueError(f"guidance must be one finite number, got {guidance!r}")
    w = float(guidance)
    sig = schedule.sigmas
    x = np.asarray(x_init, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("x_init must be finite")
    if isinstance(denoiser, GaussianMixtureDenoiser):
        mix, split = ((denoiser._lookup(denoiser.mixtures, cond), None) if w == 1.0
                      else denoiser._union(cond))
        x = x.copy()  # the state, written in place from here on
        batch = mix._batch(x)
        s2, log_norm = mix._sigma_terms(sig[:-1, None])
        keep = mix.variances / s2
        for i, c in enumerate(((sig[1:] - sig[:-1]) / sig[:-1]).tolist()):
            kappa, q = mix._factors(mix._joint(batch, s2[i], log_norm[i]), keep[i], split, w)
            kappa *= -c
            kappa += 1.0 + c
            q *= -c
            batch *= kappa
            batch += q @ mix.means
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
        if not (0.0 <= self.w_min < math.inf and 0.0 <= self.w_max < math.inf):
            raise ValueError("guidance strengths must be finite and >= 0")
        k_min = 2 if self.kind == "linear" else 1
        if not isinstance(self.k, (int, np.integer)) or self.k < k_min:
            raise ValueError(f"{self.kind} schedule needs an integer k >= {k_min}")

    def at(self, i):
        """CFG strength of frame i."""
        if not isinstance(i, (int, np.integer)) or not 0 <= i < self.k:
            raise ValueError(f"frame index {i!r} must be an integer in [0, {self.k})")
        w_min, w_max, k = self.w_min, self.w_max, self.k
        if self.kind == "constant":
            return float(w_max)
        if self.kind == "linear":
            return float(w_min + (w_max - w_min) * (i / (k - 1)))
        return float(w_min + (w_max - w_min) * (1.0 - abs(2.0 * i / k - 1.0)))

    def values(self):
        return np.array([self.at(i) for i in range(self.k)])
