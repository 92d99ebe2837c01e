"""Tests for the Kalman/unscented/particle estimator back-ends."""

from __future__ import annotations

import numpy as np
import pytest

from nnsse.estimators import (
    CovarianceDegeneracyError,
    DegenerateLikelihoodError,
    GaussianBelief,
    ParticleSet,
    SteadyStateLke,
    UkeParams,
    eke_step,
    lke_step,
    pe_step,
    psd_sqrt,
    systematic_resample,
    uke_sigma_points,
    uke_step,
)
from nnsse.model import (
    Activation,
    NoiseSpec,
    Topology,
    transition_jacobian,
)
from nnsse.runners import RunContext, build_runner


class LinearModel:
    """Transition x -> F x with the unit-selector observation, for testing:
    lead row F[0], linear part F with row 0 zeroed."""

    def __init__(self, F):
        self.F = np.asarray(F, dtype=float)
        self.A = self.F.copy()
        self.A[0] = 0.0

    def transition_batch(self, X):
        return X @ self.F.T

    def lead_batch(self, X):
        return X @ self.F[0]

    def lead_gradient(self, x):
        return self.F[0].copy()

    def linear_part(self, X):
        return X @ self.A.T


def uam3_F(T=0.005):
    return np.array([[1.0, T, T * T / 2.0], [0.0, 1.0, T], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# psd_sqrt


def test_psd_sqrt_identity():
    np.testing.assert_array_equal(psd_sqrt(np.eye(4)), np.eye(4))


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_random_factor_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        A = rng.standard_normal((6, 6))
        M = A @ A.T
        L = psd_sqrt(M)
        assert np.abs(L @ L.T - M).max() <= 1e-10
        assert np.allclose(L, np.tril(L))


def test_psd_sqrt_zero_matrix():
    np.testing.assert_array_equal(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))


@pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 2)],
                         ids=["vector", "non_square", "stacked"])
def test_psd_sqrt_refuses_an_array_that_is_not_one_square_matrix(shape):
    with pytest.raises(ValueError) as err:
        psd_sqrt(np.zeros(shape))
    assert str(err.value) == f"expected a square matrix, got shape {shape}"


def test_psd_sqrt_semidefinite_raises():
    # No jitter rescues a singular matrix that is not exactly zero.
    with pytest.raises(CovarianceDegeneracyError, match=r"2x2 .* smallest eigenvalue 0\.0"):
        psd_sqrt(np.diag([1.0, 0.0]))


def test_psd_sqrt_non_finite_raises():
    with pytest.raises(CovarianceDegeneracyError, match="not finite"):
        psd_sqrt(np.array([[1.0, np.inf], [np.inf, 1.0]]))


def test_psd_sqrt_degenerate_raises():
    with pytest.raises(CovarianceDegeneracyError):
        psd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))


# ---------------------------------------------------------------------------
# sigma points


def test_sigma_points_n1_example():
    belief = GaussianBelief(np.zeros(1), np.ones((1, 1)))
    sig = uke_sigma_points(belief, UkeParams(alpha=1.0, beta=2.0, kappa=0.0))
    np.testing.assert_allclose(sig.points.ravel(), [0.0, 1.0, -1.0])
    np.testing.assert_allclose(sig.mean_weights, [0.0, 0.5, 0.5])
    # zeroth covariance weight is w_mean[0] + 1 - alpha^2 - beta
    assert sig.cov_weights[0] == pytest.approx(0.0 + 1.0 - 1.0 - 2.0)


def test_sigma_mean_weights_sum_to_one():
    rng = np.random.default_rng(55)
    for n in (1, 4, 9):
        A = rng.standard_normal((n, n))
        belief = GaussianBelief(rng.standard_normal(n), A @ A.T)
        for params in (UkeParams(), UkeParams(1e-3, 2.0, 0.0), UkeParams(1.0, 2.0, 0.0),
                       UkeParams(0.5, 2.0, 3.0 - n)):
            sig = uke_sigma_points(belief, params)
            assert float(np.sum(sig.mean_weights)) == pytest.approx(1.0, abs=1e-9)


def test_sigma_zero_covariance_points_collapse():
    mean = np.array([2.0, -1.0, 0.5])
    sig = uke_sigma_points(GaussianBelief(mean, np.zeros((3, 3))))
    for p in sig.points:
        np.testing.assert_array_equal(p, mean)


def test_sigma_reconstruction():
    rng = np.random.default_rng(77)
    for n in (2, 5):
        A = rng.standard_normal((n, n))
        cov = A @ A.T
        mean = rng.standard_normal(n)
        sig = uke_sigma_points(GaussianBelief(mean, cov), UkeParams(1.0, 2.0, 0.0))
        np.testing.assert_allclose(sig.mean_weights @ sig.points, mean, atol=1e-12)
        D = sig.points - mean
        recon = (D.T * sig.cov_weights) @ D
        assert np.abs(recon - cov).max() <= 1e-10


def test_sigma_scale_must_be_positive():
    belief = GaussianBelief(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        uke_sigma_points(belief, UkeParams(alpha=1.0, beta=2.0, kappa=-3.0))


# ---------------------------------------------------------------------------
# lke_step


def test_lke_infinite_measurement_noise_keeps_prior():
    F = uam3_F()
    noise = NoiseSpec(np.zeros((3, 3)), 1e18, np.eye(3))
    belief = GaussianBelief(np.array([1.0, 2.0, 3.0]), np.eye(3))
    posterior, innov = lke_step(F, noise, belief, 100.0)
    np.testing.assert_allclose(posterior.mean, F @ belief.mean, atol=1e-9)
    np.testing.assert_allclose(posterior.cov, F @ belief.cov @ F.T, atol=1e-9)
    assert innov == pytest.approx(100.0 - (F @ belief.mean)[0])


def test_lke_scalar_hand_case():
    # F=1, Q=0, R=1, P=1, x=0, z=2  ->  K=1/2, mean=1, cov=1/2
    noise = NoiseSpec(np.zeros((1, 1)), 1.0, np.ones((1, 1)))
    belief = GaussianBelief(np.zeros(1), np.ones((1, 1)))
    posterior, innov = lke_step(np.ones((1, 1)), noise, belief, 2.0)
    assert posterior.mean[0] == pytest.approx(1.0)
    assert posterior.cov[0, 0] == pytest.approx(0.5)
    assert innov == pytest.approx(2.0)


def test_lke_noiseless_quadratic_innovations_vanish():
    T = 0.01
    F = uam3_F(T)
    noise = NoiseSpec(1e-8 * np.eye(3), 1e-2, np.eye(3))
    steps = 4000
    t = np.arange(steps) * T
    z = 1.0 + 0.5 * t + 0.25 * t * t
    belief = GaussianBelief(np.array([z[0], 0.0, 0.0]), np.eye(3))
    innovations = np.empty(steps)
    for i in range(steps):
        belief, innovations[i] = lke_step(F, noise, belief, z[i])
    assert np.abs(innovations[-100:]).max() < 1e-6


def test_lke_dimension_check():
    noise = NoiseSpec(np.eye(2), 1.0, np.eye(2))
    belief = GaussianBelief(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        lke_step(np.eye(3), noise, belief, 0.0)


@pytest.mark.parametrize("step", ["lke", "uke", "eke"])
def test_kalman_steps_refuse_a_covariance_that_is_not_n_by_n(step):
    # A belief takes its arrays as given; the step that reads its covariance
    # refuses one that is not n x n, whether it holds zeros or ones.
    F = uam3_F()
    model = LinearModel(F)
    noise = NoiseSpec(np.diag([1e-4, 1e-3, 1e-2]), 1.0, np.eye(3))
    run = {"lke": lambda belief: lke_step(F, noise, belief, 0.5),
           "uke": lambda belief: uke_step(model, noise, belief, 0.5),
           "eke": lambda belief: eke_step(model, noise, belief, 0.5)}[step]
    for shape in [(3, 4), (4, 3), (4, 4), (2, 2), (3,), (9,), (1, 3, 3), (3, 3, 1), ()]:
        for fill in (0.0, 1.0):
            with pytest.raises(ValueError):
                run(GaussianBelief(np.zeros(3), np.full(shape, fill)))


# ---------------------------------------------------------------------------
# SteadyStateLke


def _repeat_cov_stub(calls):
    """Stand-in for `lke_step` whose posterior covariance repeats the prior
    covariance bit for bit."""

    def stub(F, noise, belief, z):
        calls.append(z)
        return GaussianBelief(belief.mean + 1.0, belief.cov.copy(),
                              np.zeros_like(belief.mean)), 0.0

    return stub


@pytest.mark.parametrize("bad", [None, np.nan, np.inf])
def test_steady_state_lke_freezes_only_a_finite_covariance(bad, monkeypatch):
    import nnsse.estimators

    calls = []
    monkeypatch.setattr(nnsse.estimators, "lke_step", _repeat_cov_stub(calls))
    cov = np.eye(2)
    if bad is not None:
        cov[1, 1] = bad
    belief = GaussianBelief(np.zeros(2), cov)
    step = SteadyStateLke(np.eye(2), NoiseSpec(np.eye(2), 1.0, np.eye(2)))
    for i in range(5):
        posterior, _ = step(belief, float(i))
        assert posterior.cov.tobytes() == belief.cov.tobytes()
        belief = posterior
    if bad is None:
        assert calls == [0.0] and step.gain is not None
    else:
        assert calls == [0.0, 1.0, 2.0, 3.0, 4.0] and step.gain is None


def test_steady_state_lke_steps_other_beliefs_through_lke_step(monkeypatch):
    import nnsse.estimators

    F = uam3_F(0.005)
    noise = NoiseSpec(np.diag([1e-6, 1e-4, 1e-2]), 1.0, np.eye(3))
    step = SteadyStateLke(F, noise)
    belief = GaussianBelief(np.zeros(3), noise.Pi0)
    for i in range(3000):
        belief, _ = step(belief, np.sin(0.01 * i))
    assert belief.cov is step.cov and not step.cov.flags.writeable
    calls = []
    monkeypatch.setattr(nnsse.estimators, "lke_step",
                        lambda *args: calls.append(1) or lke_step(*args))
    frozen, innovation = step(belief, 0.5)
    assert calls == [] and frozen.cov is step.cov
    plain, plain_innovation = lke_step(F, noise, belief, 0.5)
    assert frozen.mean.tobytes() == plain.mean.tobytes()
    assert frozen.cov.tobytes() == plain.cov.tobytes()
    assert frozen.gain is step.gain and frozen.gain.tobytes() == plain.gain.tobytes()
    assert innovation == plain_innovation
    # A belief with an equal but distinct covariance takes the plain path.
    other = GaussianBelief(belief.mean, belief.cov.copy())
    posterior, _ = step(other, 0.5)
    assert calls == [1] and posterior.mean.tobytes() == plain.mean.tobytes()


# ---------------------------------------------------------------------------
# uke_step


def run_linear_comparison(seed, steps=1000, params=UkeParams(1.0, 2.0, 0.0)):
    """LKE vs UKE vs EKE on the order-3 kinematic model, shared measurements."""
    rng = np.random.default_rng(seed)
    F = uam3_F()
    model = LinearModel(F)
    noise = NoiseSpec(np.diag([1e-4, 1e-3, 1e-2]), 1.0, np.eye(3))
    z = 10.0 * np.sin(2 * np.pi * np.arange(steps) / 200.0) + rng.standard_normal(steps)
    b_l = GaussianBelief(np.array([z[0], 0.0, 0.0]), np.eye(3))
    b_u = GaussianBelief(np.array([z[0], 0.0, 0.0]), np.eye(3))
    b_e = GaussianBelief(np.array([z[0], 0.0, 0.0]), np.eye(3))
    max_rel_u = 0.0
    max_rel_e = 0.0
    for i in range(steps):
        b_l, _ = lke_step(F, noise, b_l, z[i])
        b_u, _ = uke_step(model, noise, b_u, z[i], params)
        b_e, _ = eke_step(model, noise, b_e, z[i])
        denom = max(np.abs(b_l.mean).max(), 1e-12)
        max_rel_u = max(max_rel_u, np.abs(b_u.mean - b_l.mean).max() / denom)
        max_rel_e = max(max_rel_e, np.abs(b_e.mean - b_l.mean).max() / denom)
    return max_rel_u, max_rel_e, b_l, b_u, b_e


def test_uke_eke_match_lke_on_linear_model():
    rel_u, rel_e, b_l, b_u, b_e = run_linear_comparison(seed=1)
    assert rel_u <= 1e-8
    assert rel_e <= 1e-12
    np.testing.assert_allclose(b_u.cov, b_l.cov, rtol=1e-8, atol=1e-12)


def test_uke_matches_lke_at_default_spread():
    # The textbook scaled spread alpha=1e-3, beta=2 puts +-1e6 sigma weights
    # in play; the transform is still exact for linear maps, with float64
    # agreement at the 1e-6 level.
    rel_u, _, b_l, b_u, _ = run_linear_comparison(
        seed=1, params=UkeParams(1e-3, 2.0, 0.0))
    assert rel_u <= 1e-6
    np.testing.assert_allclose(b_u.cov, b_l.cov, rtol=1e-4, atol=1e-10)


def test_uke_zero_innovation_keeps_mean():
    model = LinearModel(np.eye(2))
    noise = NoiseSpec(np.zeros((2, 2)), 1.0, np.eye(2))
    belief = GaussianBelief(np.array([3.0, -1.0]), 0.5 * np.eye(2))
    _, innovation = uke_step(model, noise, belief, 0.0)
    posterior, _ = uke_step(model, noise, belief, -innovation)  # z = the predicted observation
    np.testing.assert_allclose(posterior.mean, belief.mean, atol=1e-12)


def test_uke_variance_strictly_decreases():
    # identity transition, Q=0, repeated identical measurement
    model = LinearModel(np.eye(2))
    noise = NoiseSpec(np.zeros((2, 2)), 1.0, np.eye(2))
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    prev = belief.cov[0, 0]
    sigma2 = 1.0
    for _ in range(12):
        belief, _ = uke_step(model, noise, belief, 0.5)
        # scalar Bayes oracle: var' = var*R/(var+R)
        sigma2 = sigma2 * 1.0 / (sigma2 + 1.0)
        assert belief.cov[0, 0] < prev
        assert belief.cov[0, 0] == pytest.approx(sigma2, rel=1e-6)
        prev = belief.cov[0, 0]


def test_uke_mean_keeps_cross_covariance_term_eke_does_not():
    # For the bilinear row f = w.x_in the unscented mean is exact to second
    # order, E[f] = w.x_in + tr C_{w,x_in}; the extended step propagates the
    # plug-in f(mean) and drops the trace.
    top = Topology.weighted_sum(3, horizon_a=2)
    n = top.state_dim
    rng = np.random.default_rng(11)
    # each weight loads 0.5 on one network input, so tr C_{w,x_in} is ~1.5
    G = np.eye(n) + np.tril(0.1 * rng.standard_normal((n, n)), -1)
    G[top.weight_slice, top.network_input_slice] += 0.5 * np.eye(3)
    belief = GaussianBelief(rng.standard_normal(n), G @ G.T)
    w = belief.mean[top.weight_slice]
    x_in = belief.mean[top.network_input_slice]
    cross = np.trace(belief.cov[top.weight_slice, top.network_input_slice])
    assert abs(cross) > 1.0
    noise = NoiseSpec(1e-4 * np.eye(n), 1.0, np.eye(n))
    _, nu_uke = uke_step(top, noise, belief, 0.0, UkeParams(1.0, 0.0, 0.0))
    _, nu_eke = eke_step(top, noise, belief, 0.0)
    z_uke, z_eke = -nu_uke, -nu_eke  # predicted observations, z = 0
    assert z_uke == pytest.approx(w @ x_in + cross, rel=0, abs=1e-12)
    assert z_eke == pytest.approx(w @ x_in, rel=0, abs=1e-12)


def test_uke_default_params_stay_stable_on_constant_series():
    # The default spread keeps every covariance weight nonnegative; the
    # tiny-alpha spread runs this belief out of jitter within 100 steps.
    runner = build_runner("NNSSE-UKE", "nnsse_uke", {}, RunContext(3, 0.005, 1))
    runner.step(5.0)
    model, noise = runner.step_fn.args
    belief = runner.state
    for _ in range(200):
        belief, _ = uke_step(model, noise, belief, 5.0)
    assert np.all(np.isfinite(belief.mean))


# ---------------------------------------------------------------------------
# partially linear time update against the dense forms


def random_belief(rng, n):
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    return GaussianBelief(rng.standard_normal(n), G @ G.T + 0.1 * np.eye(n))


def oracle_models():
    """(label, model, state dimension, full transition of an (m, n) batch,
    dense Jacobian or None) for the weighted sum, two MLPs and the kinematic
    adapter."""
    out = []
    for label, top in (("ws25", Topology.weighted_sum(25, horizon_a=3)),
                       ("5-5-1-tanh", Topology.mlp([5, 5, 1], Activation.TANH, 3)),
                       ("5-5-5-1", Topology.mlp([5, 5, 5, 1], horizon_a=3))):
        out.append((label, top, top.state_dim, top.transition_batch,
                    lambda x, top=top: transition_jacobian(top, x)))
    uam = build_runner("UAM-UKE", "uam_uke", {}, RunContext(3, 0.005, 1))
    F = uam3_F()
    out.append(("uam3", uam.step_fn.args[0], 3, lambda X: X @ F.T, None))
    return out


def predicted_moments(step, model, belief, *args):
    """Prior moments of one step: with R = 1e18 the update moves them by
    less than 1e-17 of their scale."""
    n = belief.mean.size
    noise = NoiseSpec(1e-3 * np.eye(n), 1e18, np.eye(n))
    posterior, _ = step(model, noise, belief, 0.0, *args)
    return posterior.mean, posterior.cov, noise.Q


@pytest.mark.parametrize("params", [UkeParams(), UkeParams(1.0, 2.0, 0.0)])
def test_uke_time_update_matches_dense_sigma_point_covariance(params):
    rng = np.random.default_rng(2006)
    for label, model, n, transition, _ in oracle_models():
        for _ in range(3):
            belief = random_belief(rng, n)
            mean, cov, Q = predicted_moments(uke_step, model, belief, params)
            sig = uke_sigma_points(belief, params)
            propagated = transition(sig.points)
            x_pred = sig.mean_weights @ propagated
            D = propagated - x_pred
            P_pred = (D.T * sig.cov_weights) @ D + Q
            np.testing.assert_allclose(mean, x_pred, rtol=1e-12, atol=1e-12,
                                       err_msg=label)
            np.testing.assert_allclose(cov, P_pred, rtol=0,
                                       atol=1e-12 * np.abs(P_pred).max(), err_msg=label)


def test_eke_time_update_matches_dense_jacobian_product():
    rng = np.random.default_rng(2003)
    for label, model, n, transition, jacobian in oracle_models():
        if jacobian is None:
            continue
        for _ in range(3):
            belief = random_belief(rng, n)
            mean, cov, Q = predicted_moments(eke_step, model, belief)
            F = jacobian(belief.mean)
            x_pred = transition(belief.mean[None])[0]
            P_pred = F @ belief.cov @ F.T + Q
            np.testing.assert_allclose(mean, x_pred, rtol=1e-12, atol=1e-12,
                                       err_msg=label)
            np.testing.assert_allclose(cov, P_pred, rtol=0,
                                       atol=1e-12 * np.abs(P_pred).max(), err_msg=label)


@pytest.mark.parametrize("step", [uke_step, eke_step])
def test_non_finite_prediction_raises(step):
    top = Topology.weighted_sum(3, horizon_a=2)
    n = top.state_dim
    belief = GaussianBelief(np.full(n, 1e200), np.eye(n))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CovarianceDegeneracyError, match="non-finite"):
            step(top, NoiseSpec(np.eye(n), 1.0, np.eye(n)), belief, 0.0)


# ---------------------------------------------------------------------------
# eke_step


def test_eke_zero_innovation_keeps_mean():
    model = LinearModel(np.eye(3))
    noise = NoiseSpec(np.zeros((3, 3)), 2.0, np.eye(3))
    belief = GaussianBelief(np.array([1.0, 2.0, 3.0]), np.eye(3))
    posterior, innovation = eke_step(model, noise, belief, 1.0)
    assert 1.0 - innovation == pytest.approx(1.0)  # the predicted observation
    np.testing.assert_allclose(posterior.mean, belief.mean, atol=1e-15)


def test_eke_frozen_weights_equals_position_block_lke():
    # With the weight block pinned (zero Q and zero initial covariance there),
    # the position marginal of the extended filter must match an LKE running
    # on the position-only stack transition built from the frozen weights.
    top = Topology.weighted_sum(3, horizon_a=2)
    n = top.state_dim
    k = top.position_count  # 4
    w = np.array([0.6, 0.3, 0.1])
    rng = np.random.default_rng(5)
    z = np.cumsum(rng.standard_normal(80))

    Q = np.zeros((n, n))
    Q[:k, :k] = 1e-4 * np.eye(k)
    P0 = np.zeros((n, n))
    P0[:k, :k] = np.eye(k)
    noise = NoiseSpec(Q, 1.0, P0)
    mean0 = np.concatenate([np.zeros(k), w])
    belief = GaussianBelief(mean0, P0)

    # oracle: position-block linear filter (network input at offsets 1..3)
    F_pos = np.zeros((k, k))
    F_pos[0, 1:] = w
    for r in range(1, k):
        F_pos[r, r - 1] = 1.0
    noise_pos = NoiseSpec(1e-4 * np.eye(k), 1.0, np.eye(k))
    belief_pos = GaussianBelief(np.zeros(k), np.eye(k))
    for i in range(80):
        belief_pos, _ = lke_step(F_pos, noise_pos, belief_pos, z[i])
        belief, _ = eke_step(top, noise, belief, z[i])
        np.testing.assert_allclose(belief.mean[:k], belief_pos.mean, atol=1e-12)
        np.testing.assert_allclose(belief.cov[:k, :k], belief_pos.cov, atol=1e-12)
        np.testing.assert_array_equal(belief.mean[k:], w)


# ---------------------------------------------------------------------------
# particle estimator


def test_systematic_resample_point_mass():
    rng = np.random.default_rng(0)
    idx = systematic_resample(np.array([1.0, 0.0, 0.0, 0.0]), rng)
    np.testing.assert_array_equal(idx, np.zeros(4, dtype=idx.dtype))


def test_particle_set_ess():
    ps = ParticleSet(np.zeros((4, 2)), np.full(4, 0.25))
    assert ps.ess == pytest.approx(4.0)


def test_pe_deterministic_with_zero_process_noise():
    model = LinearModel(uam3_F())
    noise = NoiseSpec(np.zeros((3, 3)), 1e18, np.eye(3))
    rng = np.random.default_rng(9)
    parts = ParticleSet(rng.standard_normal((8, 3)), np.full(8, 1 / 8))
    expected = parts.particles @ model.F.T
    new, _ = pe_step(model, noise, parts, 0.0, np.random.default_rng(1))
    np.testing.assert_array_equal(new.particles, expected)
    # uniform weights stay uniform under a flat likelihood, ess == N
    np.testing.assert_allclose(new.weights, np.full(8, 1 / 8))


def simulate_uam3_truth(steps, Q, R, rng):
    """Ground truth generated by the model itself, so LKE is the exact filter."""
    F = uam3_F()
    Lq = np.sqrt(np.diagonal(Q))
    x = np.zeros(3)
    states = np.empty((steps, 3))
    z = np.empty(steps)
    for i in range(steps):
        x = F @ x + Lq * rng.standard_normal(3)
        states[i] = x
        z[i] = x[0] + np.sqrt(R) * rng.standard_normal()
    return states, z


def test_pe_tracks_lke_posterior_mean():
    steps = 500
    F = uam3_F()
    model = LinearModel(F)
    Q = np.diag([1e-4, 1e-3, 1e-2])
    noise = NoiseSpec(Q, 1.0, np.eye(3))
    _, z = simulate_uam3_truth(steps, Q, 1.0, np.random.default_rng(3))
    belief = GaussianBelief(np.zeros(3), np.eye(3))
    prng = np.random.default_rng(12345)
    N = 4000
    parts = ParticleSet(prng.standard_normal((N, 3)), np.full(N, 1.0 / N))
    err = np.empty(steps)
    for i in range(steps):
        belief, _ = lke_step(F, noise, belief, z[i])
        parts, _ = pe_step(model, noise, parts, z[i], prng)
        err[i] = (parts.weights @ parts.particles)[0] - belief.mean[0]
    rmse = float(np.sqrt(np.mean(err ** 2)))
    assert rmse <= 0.1  # 10% of unit measurement noise std


def test_pe_degenerate_likelihood_raises():
    model = LinearModel(np.eye(2))
    noise = NoiseSpec(np.zeros((2, 2)), 1e-250, np.eye(2))
    parts = ParticleSet(np.zeros((4, 2)), np.full(4, 0.25))
    with pytest.raises(DegenerateLikelihoodError):
        pe_step(model, noise, parts, 50.0, np.random.default_rng(0))


def test_pe_bit_reproducible():
    model = LinearModel(uam3_F())
    noise = NoiseSpec(1e-3 * np.eye(3), 1.0, np.eye(3))

    def run():
        rng = np.random.default_rng(77)
        parts = ParticleSet(np.zeros((64, 3)), np.full(64, 1 / 64))
        outs = []
        for i in range(30):
            parts, innovation = pe_step(model, noise, parts, np.sin(0.1 * i), rng)
            outs.append(innovation)
        return np.array(outs), parts.particles.copy()

    o1, p1 = run()
    o2, p2 = run()
    np.testing.assert_array_equal(o1, o2)
    np.testing.assert_array_equal(p1, p2)


@pytest.mark.parametrize("Q", [[[1.0, 0.5], [0.5, 1.0]], [[0.0, 1e-3], [1e-3, 0.0]]],
                         ids=["dense", "zero_diagonal"])
def test_pe_refuses_a_non_diagonal_process_noise(Q):
    model = LinearModel(np.eye(2))
    noise = NoiseSpec(np.array(Q), 1.0, np.eye(2))
    parts = ParticleSet(np.zeros((4, 2)), np.full(4, 0.25))
    with pytest.raises(ValueError, match="diagonal"):
        pe_step(model, noise, parts, 0.0, np.random.default_rng(0))


def test_pe_accepts_a_diagonal_process_noise_with_a_zero_entry():
    model = LinearModel(np.eye(2))
    noise = NoiseSpec(np.diag([1e-3, 0.0]), 1.0, np.eye(2))
    parts = ParticleSet(np.zeros((4, 2)), np.full(4, 0.25))
    new, _ = pe_step(model, noise, parts, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(new.particles[:, 1], np.zeros(4))
    assert np.count_nonzero(new.particles[:, 0]) == 4


def test_pe_requires_two_particles():
    model = LinearModel(np.eye(2))
    noise = NoiseSpec(np.zeros((2, 2)), 1.0, np.eye(2))
    parts = ParticleSet(np.zeros((1, 2)), np.ones(1))
    with pytest.raises(ValueError):
        pe_step(model, noise, parts, 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# covariance hygiene


def test_posteriors_stay_symmetric_and_psd():
    rng = np.random.default_rng(31)
    model = LinearModel(uam3_F())
    noise = NoiseSpec(np.diag([1e-4, 1e-3, 1e-2]), 1.0, np.eye(3))
    belief = GaussianBelief(np.zeros(3), np.eye(3))
    for i in range(200):
        belief, _ = uke_step(model, noise, belief, rng.standard_normal())
        assert np.abs(belief.cov - belief.cov.T).max() <= 1e-12
        assert np.linalg.eigvalsh(belief.cov).min() >= -1e-9
