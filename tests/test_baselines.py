"""Tests for the classical baseline predictors."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nnsse.baselines import (
    STACK_COEFFS,
    SineModel,
    StackKind,
    StackModel,
    UamModel,
    e4ptrw_refit,
    multi_step_predict,
    stack_transition,
)
from nnsse.estimators import GaussianBelief, lke_step
from nnsse.model import NoiseSpec
from nnsse.signals import gen_sine


# ---------------------------------------------------------------------------
# uam


def test_uam_predict_basic():
    assert multi_step_predict(UamModel(2, 0.1), [0.0, 1.0], 2) == pytest.approx(0.2)


def test_uam_predict_with_acceleration():
    # p=1, v=0, a=2, n=3, T=1 -> 1 + 0 + 0.5*2*9 = 10
    assert multi_step_predict(UamModel(3, 1.0), [1.0, 0.0, 2.0], 3) == pytest.approx(10.0)


def test_uam_predict_order4_adds_jerk_term():
    state3 = [1.0, 2.0, 3.0]
    jerk = 0.7
    n, T = 4, 0.25
    base = multi_step_predict(UamModel(3, T), state3, n)
    # Taylor-series oracle for the jerk contribution
    expected = base + jerk * (n * T) ** 3 / math.factorial(3)
    assert multi_step_predict(UamModel(4, T), state3 + [jerk], n) == pytest.approx(
        expected, rel=1e-12)


def test_uam_transition_matrix_order3():
    T = 0.01
    F = UamModel(3, T).F
    np.testing.assert_allclose(F, [[1, T, T * T / 2], [0, 1, T], [0, 0, 1]])


def test_uam_model_is_its_own_unscented_model():
    m = UamModel(3, 0.02)
    X = np.random.default_rng(4).standard_normal((7, 3))
    A = m.F.copy()
    A[0] = 0.0
    assert m.lead_batch(X).tobytes() == (X @ m.F[0]).tobytes()
    assert m.linear_part(X).tobytes() == (X @ A.T).tobytes()
    assert m.linear_part(X[0]).tobytes() == (X[0] @ A.T).tobytes()
    np.testing.assert_allclose(m.linear_part(X) + np.outer(m.lead_batch(X), np.eye(3)[0]),
                               X @ m.F.T, rtol=1e-15)


def test_uam_model_validation():
    with pytest.raises(ValueError):
        UamModel(5, 0.1)
    with pytest.raises(ValueError):
        UamModel(2, 0.0)


def test_uam_lke_reproduces_matching_polynomials():
    # order-k filter on a noiseless degree-(k-1) polynomial: innovations -> 0
    T = 0.01
    steps = 3000
    t = np.arange(steps) * T
    polys = {
        1: np.full(steps, 2.5),
        2: 1.0 + 0.8 * t,
        3: 1.0 + 0.5 * t + 0.25 * t * t,
        4: 1.0 + 0.5 * t + 0.25 * t * t + 0.1 * t ** 3,
    }
    for order, z in polys.items():
        m = UamModel(order, T)
        noise = NoiseSpec(1e-6 * np.eye(order), 1e-2, np.eye(order))
        belief = GaussianBelief(np.zeros(order), np.eye(order))
        innov = np.empty(steps)
        for i in range(steps):
            belief, innov[i] = lke_step(m.F, noise, belief, z[i])
        assert np.abs(innov[-100:]).max() < 1e-6, f"order {order}"


# ---------------------------------------------------------------------------
# stacks


def test_stack_first_rows():
    assert STACK_COEFFS[StackKind.E2P] == (2.0, -1.0)
    np.testing.assert_allclose(stack_transition(StackKind.E4PRW).F[0],
                               [1.2668, -0.0152, 0.0103, -0.2618])


def test_e4pvw_first_row_from_difference_expansion():
    # expand p + sum_j lam_j (p_{j} - p_{j+1}) with weights 3/6, 2/6, 1/6
    lams = np.array([3.0, 2.0, 1.0]) / 6.0
    row = np.zeros(4)
    row[0] = 1.0
    for j, lam in enumerate(lams):
        row[j] += lam
        row[j + 1] -= lam
    np.testing.assert_allclose(row, [1.5, -1 / 6, -1 / 6, -1 / 6])
    np.testing.assert_allclose(stack_transition(StackKind.E4PVW).F[0], row)


def test_stack_shift_rows_and_row_sums():
    for kind in StackKind:
        m = stack_transition(kind)
        for r in range(1, m.k):
            row = np.zeros(m.k)
            row[r - 1] = 1.0
            np.testing.assert_array_equal(m.F[r], row)
        total = float(np.sum(m.F[0]))
        if kind in (StackKind.E4PRW, StackKind.E4PTRW):
            assert total == pytest.approx(1.0001, abs=1e-12)
        else:
            assert total == pytest.approx(1.0, abs=1e-12)


def test_fixed_difference_stacks_reproduce_ramps():
    # exact on linear ramps for any horizon up to 10
    ramp = np.arange(100.0)
    for kind in (StackKind.E2P, StackKind.E3P, StackKind.E4P, StackKind.E4PVW):
        m = stack_transition(kind)
        state = np.array([ramp[10 - j] for j in range(m.k)])
        for n in range(1, 11):
            pred = multi_step_predict(m, state, n)
            assert pred == pytest.approx(ramp[10 + n], abs=1e-9), (kind, n)


def test_e4prw_regressed_row_is_not_ramp_consistent():
    # The published regressed coefficients sum to 1.0001 with first moment
    # -0.78, so they cannot reproduce a ramp; pin the actual one-step bias.
    m = stack_transition(StackKind.E4PRW)
    state = np.array([10.0, 9.0, 8.0, 7.0])
    pred = multi_step_predict(m, state, 1)
    expected = 1.2668 * 10 - 0.0152 * 9 + 0.0103 * 8 - 0.2618 * 7
    assert pred == pytest.approx(expected, abs=1e-12)
    assert abs(pred - 11.0) > 0.2  # visible bias, by construction


# ---------------------------------------------------------------------------
# e4ptrw_refit


def test_refit_recovers_generating_coefficients():
    coeffs = np.array(STACK_COEFFS[StackKind.E4PRW])
    seq = [1.0, 2.0, -0.5, 0.3]
    for _ in range(60):
        window4 = np.array(seq[-1:-5:-1])
        seq.append(float(coeffs @ window4))
    pairs = []
    for i in range(4, len(seq) - 1):
        inputs = np.array([seq[i], seq[i - 1], seq[i - 2], seq[i - 3]])
        pairs.append((inputs, seq[i + 1]))
    A = np.stack([a for a, _ in pairs[-50:]])
    y = np.array([t for _, t in pairs[-50:]])
    fitted = e4ptrw_refit(A, y)
    np.testing.assert_allclose(fitted, coeffs, atol=1e-8)


def test_refit_ramp_prediction_exact():
    ramp = np.arange(60.0)
    pairs = [(np.array([ramp[i], ramp[i - 1], ramp[i - 2], ramp[i - 3]]), ramp[i + 1])
             for i in range(4, 54)]
    A = np.stack([p for p, _ in pairs])
    y = np.array([t for _, t in pairs])
    coeffs = e4ptrw_refit(A, y)
    nxt = float(coeffs @ np.array([ramp[53], ramp[52], ramp[51], ramp[50]]))
    assert nxt == pytest.approx(ramp[54], abs=1e-9)
    # normal-equation oracle agrees on the fitted values
    np.testing.assert_allclose(A @ coeffs, y, atol=1e-9)


def test_refit_constant_window_minimum_norm():
    A, y = np.full((20, 4), 3.0), np.full(20, 3.0)
    np.testing.assert_allclose(e4ptrw_refit(A, y), np.full(4, 0.25), atol=1e-12)


def test_refit_short_window_returns_published_coefficients():
    A, y = np.tile(np.arange(4.0), (4, 1)), np.ones(4)
    np.testing.assert_allclose(e4ptrw_refit(A, y), STACK_COEFFS[StackKind.E4PRW])


def test_refit_residual_never_worse_than_fixed_row():
    rng = np.random.default_rng(99)
    fixed = np.array(STACK_COEFFS[StackKind.E4PRW])
    for _ in range(10):
        A = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        fit = e4ptrw_refit(A, y)
        assert np.sum((A @ fit - y) ** 2) <= np.sum((A @ fixed - y) ** 2) + 1e-12


def test_refit_drops_rows_with_non_finite_input_or_target():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    A[3, 2] = np.nan
    y[8] = np.inf
    finite = np.ones(12, dtype=bool)
    finite[[3, 8]] = False
    expected, *_ = np.linalg.lstsq(A[finite], y[finite], rcond=None)
    np.testing.assert_array_equal(e4ptrw_refit(A, y), expected)
    # rows 9-11 stay finite: below E4PTRW_MIN_PAIRS, so the published row
    A[:9, 0] = np.inf
    np.testing.assert_array_equal(e4ptrw_refit(A, y),
                                  STACK_COEFFS[StackKind.E4PRW])


# ---------------------------------------------------------------------------
# sine reference


def test_sine_quarter_turn():
    m = SineModel(np.pi / 2, 1.0)  # omega*T = pi/2
    np.testing.assert_allclose(m.F @ np.array([1.0, 0.0]), [0.0, -1.0], atol=1e-15)


def test_sine_n_step_amplitude():
    m = SineModel(2 * np.pi, 0.005)
    A = 3.5
    for n in (1, 3, 10):
        assert m.forecaster(n)([A, 0.0]) == pytest.approx(A * np.cos(n * m.omega * m.T))


def test_sine_model_validation():
    with pytest.raises(ValueError):
        SineModel(0.0, 0.1)
    with pytest.raises(ValueError):
        SineModel(1.0, -0.1)


def test_sine_lke_innovations_decay_on_noiseless_sine():
    rate = 200.0
    T = 1.0 / rate
    omega = 2 * np.pi  # 1 s period
    steps = 3000
    z = 10.0 * np.sin(omega * np.arange(steps) * T)
    m = SineModel(omega, T)
    noise = NoiseSpec(1e-6 * np.eye(2), 1e-2, np.eye(2))
    belief = GaussianBelief(np.zeros(2), 10.0 * np.eye(2))
    innov = np.empty(steps)
    for i in range(steps):
        belief, innov[i] = lke_step(m.F, noise, belief, z[i])
    assert np.abs(innov[-100:]).max() < 1e-8


# ---------------------------------------------------------------------------
# multi_step_predict


def test_multi_step_e2p_hand_case():
    m = stack_transition(StackKind.E2P)
    # F [3,2] = [4,3]; F [4,3] = [5,4] -> 5
    assert multi_step_predict(m, [3.0, 2.0], 2) == pytest.approx(5.0)


def test_multi_step_n1_equals_transition():
    for kind in StackKind:
        m = stack_transition(kind)
        state = np.arange(float(m.k)) + 1.0
        one = multi_step_predict(m, state, 1)
        assert one == pytest.approx(float((m.F @ state)[0]))


@pytest.mark.parametrize("kind", list(StackKind))
def test_stack_forecaster_is_n_companion_products(kind):
    m = stack_transition(kind)
    rng = np.random.default_rng(9)
    forecasters = [m.forecaster(n) for n in range(5)]
    for refit in (False, True):
        if refit:  # bound before an in-place refit of row 0, read after it
            m.F[0] = rng.standard_normal(m.k)
        for _ in range(20):
            x = rng.standard_normal(m.k) * 10.0 ** rng.uniform(-3, 3, m.k)
            want = x
            for n, forecast in enumerate(forecasters):
                assert forecast(x).hex() == float(want[0]).hex(), (refit, n)
                want = m.F @ want


@pytest.mark.parametrize("kind", list(StackKind))
def test_stack_forecast_does_not_depend_on_the_state_strides(kind):
    # A reversed view of the series (newest first) is the natural window;
    # `F @ x` once summed it in another order than its contiguous copy.
    m = stack_transition(kind)
    z = gen_sine(10.0, 1.0, 200.0, 2000, 1.0, seed=1).measurement
    forecast = m.forecaster(3)
    for i in range(m.k - 1, len(z)):
        view = z[i - m.k + 1:i + 1][::-1]
        copy = view.copy()
        want = float((m.F @ (m.F @ (m.F @ copy)))[0]).hex()
        assert forecast(view).hex() == forecast(copy).hex() == want, i
        assert multi_step_predict(m, view, 3).hex() == want, i


def test_multi_step_requires_positive_n():
    with pytest.raises(ValueError):
        multi_step_predict(stack_transition(StackKind.E2P), [1.0, 0.0], 0)
    with pytest.raises(TypeError):
        multi_step_predict(object(), [1.0], 1)


def test_multi_step_uam_matches_closed_form():
    m = UamModel(3, 0.02)
    state = np.array([1.0, -2.0, 0.5])
    expected = (np.linalg.matrix_power(m.F, 7) @ state)[0]
    assert multi_step_predict(m, state, 7) == pytest.approx(expected)


def _taylor_oracle(state, h):
    total = 0.0
    for j, x_j in enumerate(state):
        total += x_j * h**j / math.factorial(j)
    return total


def test_uam_forecast_matches_the_literal_taylor_sum_bitwise():
    rng = np.random.default_rng(5)
    for order in (1, 2, 3, 4):
        model = UamModel(order, 0.005)
        for n in (1, 2, 3, 4, 5):
            for _ in range(20):
                state = (rng.standard_normal(order) * 10.0 ** rng.uniform(-3, 3, order))
                want = _taylor_oracle(state.tolist(), n * model.T)
                assert multi_step_predict(model, state, n).hex() == want.hex(), (order, n)
                assert multi_step_predict(model, state.tolist(), n).hex() == want.hex()


def test_uam_forecast_keys_its_factors_on_the_horizon():
    model = UamModel(4, 0.01)
    state = [1.5, -2.25, 30.0, -400.0]
    for n in (2, 5, 2, 5, 1):
        assert (multi_step_predict(model, np.array(state), n).hex()
                == _taylor_oracle(state, n * model.T).hex()), n
