"""Bayesian estimator back-ends: linear/extended/unscented Kalman and particle.

The observation is implicit: every estimator observes state coordinate 0, a
scalar, through the unit selector e_0, so no observation vector is passed and
the three Kalman variants end in the same scalar-observation update.  Every
step returns (posterior, innovation), the innovation being z minus the
predicted observation: x[0] of the predicted mean for the Kalman variants, the
prior-weighted mean of the propagated particles' x[0] for the particle one.
The Kalman variants carry a plain (mean, cov, gain) `GaussianBelief`, taken
as given: `_lke_prior_cov` and `_scalar_update` make each covariance a filter
forms symmetric, and a Kalman step refuses a covariance that is not n x n.
The linear variant takes a transition matrix F.  The others take a model of the
map x' = A x + e_0 f(x), row 0 of the fixed A being zero: ``lead_batch(X)``
is f at each row, ``linear_part(X)`` is X A^T, ``lead_gradient(x)`` the
gradient of f at one state (extended only) and ``transition_batch(X)`` the
whole map of each row (particle only).  `model.Topology` implements this
protocol for the network state, and `baselines.UamModel` its unscented part
(``lead_batch``, ``linear_part``) for its fixed F.  Shared time update
after Morelande & Ristic, ICASSP 2006, and Briers, Maskell & Wright,
FUSION 2003.  The particle variant is a bootstrap filter (Gordon, Salmond
& Smith, 1993) over a plain (particles, weights) `ParticleSet`;
`diagonal_gaussian` draws its process noise (Q diagonal) and the runner's
first cloud.

The linear variant's covariance and gain recursion reads no data, so
`SteadyStateLke` computes it once per (F, Q, R, P_0) as a schedule of
covariances and gains that every chain from the same start shares, up to
its bitwise fixed point; the other chains only update their means.  K_k is
kept from the `lke_step` call that made P_k, not derived again.  An entry
and its gain are made read-only once a second chain takes them, or at the
fixed point, so a chain that shares nothing pays for no flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import NoiseSpec


class EstimatorError(RuntimeError):
    """Base class for recoverable estimator failures."""


class CovarianceDegeneracyError(EstimatorError):
    """A covariance Cholesky refuses, a non-finite prediction or an innovation
    variance that is not positive; no jitter is added to rescue a step."""


class DegenerateLikelihoodError(EstimatorError):
    """All particle likelihoods underflowed to zero."""


def _symmetrized(M: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 in one new array.  The transpose is copied first: adding
    two C-ordered arrays is faster than adding a transposed view, and
    M^T + M equals M + M^T bit for bit."""
    S = M.T.copy()
    S += M
    S /= 2.0
    return S


class GaussianBelief(NamedTuple):
    """Mean and covariance taken as given, with no copy, check or symmetrizing:
    `_lke_prior_cov` and `_scalar_update` make the filters' covariances
    symmetric.  ``gain`` is the K of the update that made it (`_scalar_update`,
    or the one a `SteadyStateLke` schedule kept from `lke_step`); None on a prior."""

    mean: np.ndarray
    cov: np.ndarray
    gain: np.ndarray | None = None


@dataclass(frozen=True)
class UkeParams:
    """Unscented-transform spread parameters; lambda = alpha^2 (n+kappa) - n.

    The defaults are unit spread with plain symmetric weights.  The tiny-alpha
    scaled transform is indefinite on the bilinear position*weight transition
    (its zeroth covariance weight, about -1/alpha^2, amplifies the
    second-order mean correction), and beta=2 reintroduces a negative zeroth
    weight that destabilizes the deeper network maps; beta=0 keeps every
    covariance weight nonnegative, so the reconstruction stays PSD.
    """

    alpha: float = 1.0
    beta: float = 0.0
    kappa: float = 0.0

    def lam(self, n: int) -> float:
        return self.alpha ** 2 * (n + self.kappa) - n


class SigmaSet(NamedTuple):
    """2n+1 deterministic samples with mean and covariance weights."""

    points: np.ndarray
    mean_weights: np.ndarray
    cov_weights: np.ndarray
    factor: np.ndarray  # L: points 1..n = mean + L.T, n+1..2n = mean - L.T


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor L, M = L L^T, of a symmetric matrix.

    An exactly zero matrix factors to zero.  Any other matrix Cholesky refuses
    raises `CovarianceDegeneracyError` with n and its smallest eigenvalue."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        if not M.any():
            return np.zeros_like(M)
    smallest = (repr(float(np.linalg.eigvalsh(M).min())) if np.isfinite(M).all()
                else "undefined (entries not finite)")
    raise CovarianceDegeneracyError(
        f"Cholesky factorisation of a {M.shape[0]}x{M.shape[0]} covariance "
        f"failed; smallest eigenvalue {smallest}")


def uke_sigma_points(belief: GaussianBelief, params: UkeParams = UkeParams()) -> SigmaSet:
    """Sigma points around a Gaussian belief with the scaled-spread weights."""
    n = belief.mean.size
    if belief.cov.shape != (n, n):
        raise ValueError("covariance shape does not match mean length")
    lam = params.lam(n)
    s = n + lam
    if not s > 0:
        raise ValueError(f"n + lambda must be positive (got {s})")
    L = psd_sqrt(s * belief.cov)
    points = np.empty((2 * n + 1, n))
    points[0] = belief.mean
    np.add(belief.mean, L.T, out=points[1:n + 1])
    np.subtract(belief.mean, L.T, out=points[n + 1:])
    w_mean = np.full(2 * n + 1, 1.0 / (2.0 * s))
    w_mean[0] = lam / s
    w_cov = w_mean.copy()
    w_cov[0] = w_mean[0] + 1.0 - params.alpha ** 2 - params.beta
    return SigmaSet(points, w_mean, w_cov, L)


def _gain(c: np.ndarray, R: float) -> np.ndarray:
    """Kalman gain c / S of the observation z = x[0] + noise, c = P e_0 the
    prior covariance's column 0.  Raises if S = c[0] + R <= 0."""
    s = float(c[0]) + R
    if not s > 0:
        raise CovarianceDegeneracyError(
            f"innovation variance must be positive (got {s})")
    return c / s


def _mean_update(x_pred: np.ndarray, K: np.ndarray, z: float):
    """Posterior mean x + K nu and the innovation nu = z - x[0]."""
    innovation = z - float(x_pred[0])
    return x_pred + K * innovation, innovation


def _scalar_update(x_pred: np.ndarray, P_pred: np.ndarray, R: float, z: float):
    """Shared measurement update for the observation z = x[0] + noise; returns
    (posterior belief with its gain K, innovation).  The posterior covariance
    P - K P[:, 0]^T is built in P_pred's buffer, then symmetrized."""
    c = P_pred[:, 0]
    K = _gain(c, R)
    mean, innovation = _mean_update(x_pred, K, z)
    P_pred -= K[:, None] * c
    return GaussianBelief(mean, _symmetrized(P_pred), K), innovation


def _lke_prior_cov(F: np.ndarray, noise: NoiseSpec, cov: np.ndarray) -> np.ndarray:
    """F P F^T + Q, symmetrized; `.dot` matches `@` bit for bit at half its call cost."""
    P_pred = F.dot(cov).dot(F.T)
    P_pred += noise.Q
    return _symmetrized(P_pred)


def lke_step(F: np.ndarray, noise: NoiseSpec, belief: GaussianBelief, z: float):
    """Linear Kalman predict/update; returns (posterior, innovation)."""
    F = np.asarray(F, dtype=float)
    n = belief.mean.size
    if F.shape != (n, n) or noise.Q.shape != (n, n) or belief.cov.shape != (n, n):
        raise ValueError("inconsistent dimensions in lke_step")
    return _scalar_update(F.dot(belief.mean), _lke_prior_cov(F, noise, belief.cov), noise.R, z)


class _LkeSchedule:
    """Posterior covariances P_0, P_1, ... of one linear filter from one start
    P_0, and the gains K_k of the steps k-1 -> k, each kept from the
    `lke_step` call that made P_k (no gain leads to P_0).  ``complete`` once
    the last entry repeats the one before it, bit for bit and finite; that
    fixed point and its gain are read-only.  Any other entry and its gain are
    made read-only when a second chain first takes them: entries
    1..``shared`` are."""

    def __init__(self, start: np.ndarray):
        self.covs = [start]
        self.gains: list[np.ndarray | None] = [None]
        self.complete = False
        self.shared = 0


class SteadyStateLke:
    """`lke_step` bound to (F, noise), with the covariance recursion run once
    per start; called as ``step(belief, z) -> (posterior, innovation)``.

    The covariance and gain recursion of a linear filter never reads the
    data (Anderson & Moore, Optimal Filtering, 1979).  So every chain of
    beliefs from one start P_0 walks one schedule of posterior covariances
    P_1, P_2, ... and gains K_1, K_2, ...  Schedules live in ``schedules``,
    a dict keyed by the bytes of (F, Q, R, P_0) that all filters of one
    experiment run share; without one, the instance keeps its own.  The
    first chain to reach entry k computes it through `lke_step`, keeps the
    gain K_k that call formed (``posterior.gain``) and hands both out
    writable.  Every other chain steps its mean as x = F m,
    m' = x + K_k (z - x[0]), through the same `_mean_update` as `lke_step`,
    and its posterior shares P_k and K_k, which the first such chain makes
    read-only.  No prior covariance is formed outside `lke_step`.  The
    schedule stops growing at its fixed point, an entry equal to the one
    before it, bit for bit, and read-only from then on with its gain; by
    induction every later entry and gain repeats it.  A chain at the fixed
    point only checks that its belief still holds it and updates the mean.
    Posteriors and innovations stay bitwise those of plain `lke_step`.

    A belief continues its chain when its covariance is the entry the last
    posterior carried; any other belief starts a chain at its covariance.
    Only exact equality freezes, never a tolerance.  A covariance that is
    not finite never freezes, and a recursion that settles into a round-off
    limit cycle never does either: its schedule grows by one entry a step.
    Whether and at which step the fixed point is reached is a property of
    the BLAS build.
    """

    def __init__(self, F: np.ndarray, noise: NoiseSpec, schedules: dict | None = None):
        self.F = np.asarray(F, dtype=float)
        self.noise = noise
        self._schedules = {} if schedules is None else schedules
        self._key = (self.F.shape, self.F.tobytes(), noise.Q.tobytes(), noise.R.hex())
        self._schedule: _LkeSchedule | None = None
        self._k = 0                             # entry of the last posterior
        self._at: np.ndarray | None = None      # that entry
        self.cov: np.ndarray | None = None      # the fixed point, while this chain holds it
        self.gain: np.ndarray | None = None     # K of the step that repeats it

    def _start(self, cov: np.ndarray) -> None:
        key = (self._key, cov.tobytes())
        if key not in self._schedules:
            self._schedules[key] = _LkeSchedule(cov.copy())
        self._schedule, self._k = self._schedules[key], 0
        self.cov = self.gain = None

    def __call__(self, belief: GaussianBelief, z: float):
        if belief.cov is self.cov:  # the fixed point; None, before it, matches no belief
            mean, innovation = _mean_update(self.F.dot(belief.mean), self.gain, z)
            return GaussianBelief(mean, self.cov, self.gain), innovation
        if belief.cov is not self._at:
            self._start(belief.cov)
        s = self._schedule
        covs, gains, k = s.covs, s.gains, self._k + 1
        if k < len(covs):
            P, K = covs[k], gains[k]
            if k > s.shared:
                s.shared = k
                P.setflags(write=False)
                K.setflags(write=False)
            mean, innovation = _mean_update(self.F.dot(belief.mean), K, z)
            self._k, self._at = k, P
            if s.complete and k == len(covs) - 1:
                self.cov, self.gain = P, K
            return GaussianBelief(mean, P, K), innovation
        posterior, innovation = lke_step(self.F, self.noise, belief, z)
        P, K = posterior.cov, posterior.gain
        s.complete = P.tobytes() == belief.cov.tobytes() and bool(np.isfinite(P).all())
        covs.append(P)
        gains.append(K)
        self._k, self._at = k, P
        if s.complete:
            P.setflags(write=False)
            K.setflags(write=False)
            self.cov, self.gain = P, K
        return posterior, innovation


def _partially_linear_step(model, noise: NoiseSpec, belief: GaussianBelief,
                           z: float, lead: float, cross: np.ndarray, var: float):
    """Predict x' = A x + e_0 f(x) from E f, cov(x, f) and var f, then update:
    A P A^T + Q with row and column 0 written from A cov(x, f) and var f."""
    x_pred = model.linear_part(belief.mean)
    x_pred[0] = lead
    P_pred = model.linear_part(model.linear_part(belief.cov).T)
    P_pred[0] = P_pred[:, 0] = model.linear_part(cross)
    P_pred[0, 0] = var
    P_pred += noise.Q
    if not (np.isfinite(x_pred).all() and np.isfinite(P_pred).all()):
        raise CovarianceDegeneracyError("non-finite values in prediction")
    return _scalar_update(x_pred, P_pred, noise.R, z)


def eke_step(model, noise: NoiseSpec, belief: GaussianBelief, z: float):
    """Extended Kalman step, cov(x, f) ~ P g and var f ~ g.P g with g the
    gradient of f at the mean; returns (posterior, innovation)."""
    g = model.lead_gradient(belief.mean)
    Pg = belief.cov @ g
    return _partially_linear_step(model, noise, belief, z,
                                  model.lead_batch(belief.mean[None])[0], Pg, g @ Pg)


def uke_step(model, noise: NoiseSpec, belief: GaussianBelief, z: float,
             params: UkeParams = UkeParams()):
    """Unscented Kalman step; returns (posterior, innovation).

    Only f sees the sigma points.  The 2n spread points share one weight w,
    so cov(x, f) = w L (f+ - f-) over their plus and minus halves.

    The predicted mean is the unscented expectation, not f(mean).  On the
    bilinear weighted-sum row f = w.x_in it is exact to second order,
    w.x_in + tr C_{w,x_in}, where C_{w,x_in} is the weight/network-input
    block of the belief covariance; `eke_step` propagates the plug-in
    w.x_in and drops the trace.
    """
    sig = uke_sigma_points(belief, params)
    n = belief.mean.size
    f = model.lead_batch(sig.points)
    lead = sig.mean_weights @ f
    cross = sig.factor @ (f[1:n + 1] - f[n + 1:]) * sig.cov_weights[1]
    return _partially_linear_step(model, noise, belief, z, lead, cross,
                                  sig.cov_weights @ (f - lead) ** 2)


class ParticleSet(NamedTuple):
    """Weighted sample cloud: (N, n) ``particles`` and N normalized ``weights``, unchecked."""

    particles: np.ndarray
    weights: np.ndarray

    @property
    def ess(self) -> float:
        return 1.0 / float(self.weights @ self.weights)


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Index vector for systematic resampling with a single uniform draw."""
    N = weights.size
    positions = (np.arange(N) + rng.random()) / N
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against round-off at the top end
    return np.searchsorted(cumulative, positions)


def diagonal_gaussian(center, std: np.ndarray, count: int, rng: np.random.Generator):
    """``count`` rows of N(center, diag std^2): normals scaled and shifted in place."""
    cloud = rng.standard_normal((count, std.size))
    cloud *= std
    cloud += center
    return cloud


def pe_step(model, noise: NoiseSpec, particles: ParticleSet, z: float,
            rng: np.random.Generator):
    """Bootstrap particle step; returns (new ParticleSet, innovation).

    Propagates through the transition plus Gaussian process noise (Q must be
    diagonal), weights by the Gaussian likelihood of the measurement, and
    resamples systematically when the effective sample size drops below N/2.
    The innovation is z minus the prior-weighted mean of the propagated
    observations.
    """
    N = particles.particles.shape[0]
    if N < 2:
        raise ValueError("particle estimator needs at least 2 particles")
    diag = np.diagonal(noise.Q)
    if np.count_nonzero(noise.Q) != np.count_nonzero(diag):
        raise ValueError("particle process noise Q must be diagonal")
    X = diagonal_gaussian(model.transition_batch(particles.particles), np.sqrt(diag), N, rng)
    obs = X[:, 0]
    innovation = z - float(particles.weights @ obs)
    lik = np.exp(-0.5 * (z - obs) ** 2 / noise.R) / np.sqrt(2.0 * np.pi * noise.R)
    w = particles.weights * lik
    total = float(w.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateLikelihoodError(
            "all particle likelihoods underflowed to zero")
    posterior = ParticleSet(X, w / total)
    if posterior.ess < N / 2.0:
        idx = systematic_resample(posterior.weights, rng)
        posterior = ParticleSet(X[idx], np.full(N, 1.0 / N))
    return posterior, innovation
