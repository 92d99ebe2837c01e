"""Tests for the augmented state-space model and its analytic Jacobian."""

from __future__ import annotations

import numpy as np
import pytest

from nnsse.model import (
    Activation,
    NoiseSpec,
    Topology,
    _layer_outputs,
    forward_batch,
    predict_ahead_batch,
    transition_batch,
    transition_jacobian,
)


def dense_mlp_oracle(layer_mats, inputs, tanh=False):
    """Reference network: plain chained matrix products, with tanh on the
    hidden layers (never on the output) when asked."""
    h = np.asarray(inputs, dtype=float)
    for k, W in enumerate(layer_mats):
        h = np.asarray(W) @ h
        if tanh and k < len(layer_mats) - 1:
            h = np.tanh(h)
    return float(h[0])


def layer_mats(topology, weights):
    """Split a flat weight vector into row-major (out, in) layer matrices."""
    mats = []
    off = 0
    for k in range(len(topology.layer_widths) - 1):
        n_in, n_out = topology.layer_widths[k], topology.layer_widths[k + 1]
        mats.append(weights[off:off + n_in * n_out].reshape(n_out, n_in))
        off += n_in * n_out
    return mats


def oracle(topology, inputs, weights):
    tanh = topology.hidden_activation is Activation.TANH
    return dense_mlp_oracle(layer_mats(topology, weights), inputs, tanh)


def forward_one(topology, inputs, weights):
    """`forward_batch` on a one-row batch."""
    return float(forward_batch(topology, np.asarray([inputs], dtype=float),
                               np.asarray([weights], dtype=float))[0])


def transition_one(topology, state):
    """`transition_batch` on a one-row batch."""
    return transition_batch(topology, np.asarray([state], dtype=float))[0]


def predict_ahead_one(topology, state):
    """`predict_ahead_batch` on a one-row batch."""
    return float(predict_ahead_batch(topology, np.asarray([state], dtype=float))[0])


def fd_jacobian(topology, values, step=1e-6):
    """Central finite-difference Jacobian of the transition map."""
    n = values.size
    J = np.zeros((n, n))
    for j in range(n):
        hi = values.copy()
        lo = values.copy()
        hi[j] += step
        lo[j] -= step
        J[:, j] = (transition_one(topology, hi) - transition_one(topology, lo)) / (2 * step)
    return J


def random_topologies(horizon=3):
    return [
        Topology.weighted_sum(25, horizon_a=horizon),
        Topology.mlp([5, 5, 1], horizon_a=horizon),
        Topology.mlp([10, 10, 1], horizon_a=horizon),
        Topology.mlp([5, 5, 1], Activation.TANH, horizon_a=horizon),
        Topology.mlp([5, 5, 5, 1], horizon_a=horizon),
    ]


# ---------------------------------------------------------------------------
# Topology / weight_count


def test_weight_count_weighted_sum_25():
    assert Topology.weighted_sum(25).weight_count == 25


def test_weight_count_551():
    assert Topology.mlp([5, 5, 1]).weight_count == 30


def test_weight_count_10_10_1():
    # independent oracle: explicit layer-pair sum
    widths = [10, 10, 1]
    expected = sum(widths[i] * widths[i + 1] for i in range(len(widths) - 1))
    assert expected == 110
    assert Topology.mlp(widths).weight_count == 110


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology.mlp([5, 5, 2])  # output width must be 1
    with pytest.raises(ValueError):
        Topology.weighted_sum(5, horizon_a=0)
    with pytest.raises(ValueError):
        Topology.mlp([5, 0, 1])


def test_state_dim_counts():
    # 5-5-1 at horizon a: a+4 positions plus 30 weights = a+34 states
    for a in (1, 3, 10):
        top = Topology.mlp([5, 5, 1], horizon_a=a)
        assert top.position_count == a + 4
        assert top.state_dim == a + 34
    top = Topology.weighted_sum(25, horizon_a=3)
    assert top.state_dim == 2 + 25 + 25


# ---------------------------------------------------------------------------
# NoiseSpec


def test_noise_spec_validation():
    NoiseSpec(np.eye(3), 1.0, np.eye(3))
    with pytest.raises(ValueError):
        NoiseSpec(np.eye(3), 0.0, np.eye(3))
    with pytest.raises(ValueError):
        M = np.eye(3)
        M[0, 1] = 0.5
        NoiseSpec(M, 1.0, np.eye(3))
    with pytest.raises(ValueError):
        NoiseSpec(np.eye(3), 1.0, np.eye(4))


@pytest.mark.parametrize("Q, R, Pi0, message", [
    (np.diag([1.0, np.nan]), 1.0, np.eye(2), "Q must be finite"),
    (np.eye(2), 1.0, np.diag([np.inf, 1.0]), "Pi0 must be finite"),
    (np.diag([1.0, -1e9]), 1.0, np.eye(2), "Q must have a nonnegative diagonal"),
    (np.eye(2), 1.0, np.diag([-1.0, 1.0]), "Pi0 must have a nonnegative diagonal"),
    (np.eye(2), np.inf, np.eye(2), "R must be finite"),
    (np.eye(2), np.nan, np.eye(2), "R must be finite"),
])
def test_noise_spec_rejects_non_finite_and_negative_variances(Q, R, Pi0, message):
    with pytest.raises(ValueError, match=message):
        NoiseSpec(Q, R, Pi0)
    NoiseSpec(np.zeros((2, 2)), 1.0, np.zeros((2, 2)))  # zero variances are allowed


# ---------------------------------------------------------------------------
# forward_batch


def test_forward_selector_weight():
    top = Topology.weighted_sum(3)
    assert forward_one(top, [4, 7, 9], [1, 0, 0]) == pytest.approx(4.0)


def test_forward_averaging_preserves_constants():
    top = Topology.weighted_sum(25)
    k = 3.7
    out = forward_one(top, np.full(25, k), np.full(25, 1 / 25))
    assert out == pytest.approx(k, abs=1e-12)


def test_forward_mlp_221_identity():
    top = Topology.mlp([2, 2, 1])
    l1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    l2 = np.array([[1.0, 1.0]])
    w = np.concatenate([l1.ravel(), l2.ravel()])
    expected = dense_mlp_oracle([l1, l2], [2.0, 3.0])
    assert expected == 5.0
    assert forward_one(top, [2.0, 3.0], w) == pytest.approx(expected)


def test_forward_dimension_errors():
    top = Topology.weighted_sum(3)
    with pytest.raises(ValueError):
        forward_one(top, [1, 2], [1, 0, 0])
    with pytest.raises(ValueError):
        forward_one(top, [1, 2, 3], [1, 0])
    with pytest.raises(ValueError):
        forward_one(top, [1], [1, 0, 0])  # no broadcast of a short window
    with pytest.raises(ValueError):
        forward_one(Topology.mlp([2, 2, 1]), [1, 2], np.ones(7))  # 6 weights


def test_forward_identity_mlp_equals_dense_oracle():
    # 1000 seeded random cases across identity-activation topologies
    rng = np.random.default_rng(42)
    tops = [Topology.mlp([5, 5, 1]), Topology.mlp([5, 5, 5, 1]), Topology.mlp([10, 10, 1])]
    cases_per_top = 334
    for top in tops:
        for _ in range(cases_per_top):
            w = rng.standard_normal(top.weight_count)
            x = rng.standard_normal(top.input_width)
            expected = dense_mlp_oracle(layer_mats(top, w), x)
            got = forward_one(top, x, w)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_forward_weighted_sum_linearity():
    rng = np.random.default_rng(3)
    top = Topology.weighted_sum(7)
    for _ in range(50):
        u = rng.standard_normal(7)
        v = rng.standard_normal(7)
        w = rng.standard_normal(7)
        a, b = rng.standard_normal(2)
        lhs = forward_one(top, a * u + b * v, w)
        rhs = a * forward_one(top, u, w) + b * forward_one(top, v, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert forward_one(top, u, a * w) == pytest.approx(a * forward_one(top, u, w), rel=1e-12, abs=1e-12)


def test_one_layer_network_is_the_weighted_sum_bitwise():
    rng = np.random.default_rng(5)
    for b in (5, 25):
        ws, one_layer = Topology.weighted_sum(b), Topology.mlp([b, 1])
        assert one_layer == ws
        for rows in (1, 2 * ws.state_dim + 1, 1000):
            X = rng.standard_normal((rows, b))
            W = rng.standard_normal((rows, b))
            fast = forward_batch(one_layer, X, W)
            assert fast.tobytes() == forward_batch(ws, X, W).tobytes()
            # the one-dot-product path equals the general layer loop it skips
            assert fast.tobytes() == _layer_outputs(ws, X, W)[1][-1][:, 0].tobytes()


def test_forward_batch_matches_scalar():
    rng = np.random.default_rng(11)
    for top in random_topologies():
        X = rng.standard_normal((13, top.input_width))
        W = rng.standard_normal((13, top.weight_count))
        batch = forward_batch(top, X, W)
        ref = np.array([oracle(top, X[i], W[i]) for i in range(13)])
        np.testing.assert_allclose(batch, ref, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# transition_batch / predict_ahead_batch


def test_transition_a1_b2():
    top = Topology.weighted_sum(2, horizon_a=1)
    out = transition_one(top, np.array([3.0, 2.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, [3.0, 3.0, 1.0, 0.0])


def test_transition_zero_weights():
    rng = np.random.default_rng(5)
    for top in random_topologies():
        pos = rng.standard_normal(top.position_count)
        st = np.concatenate([pos, np.zeros(top.weight_count)])
        out = transition_one(top, st)
        assert out[0] == 0.0
        np.testing.assert_array_equal(out[1:top.position_count], pos[:-1])
        assert not out[top.weight_slice].any()


def test_transition_a3_b2_index_arithmetic():
    # network reads offsets 2..3 of the position block
    top = Topology.weighted_sum(2, horizon_a=3)
    st = np.array([9.0, 8.0, 7.0, 6.0, 1.0, 0.0])
    out = transition_one(top, st)
    assert out[0] == pytest.approx(7.0)
    np.testing.assert_allclose(out, [7.0, 9.0, 8.0, 7.0, 1.0, 0.0])


def test_transition_preserves_weights_bitwise():
    rng = np.random.default_rng(17)
    for top in random_topologies():
        st = rng.standard_normal(top.state_dim)
        out = transition_one(top, st)
        assert np.array_equal(out[top.weight_slice], st[top.weight_slice])


def test_transition_batch_matches_scalar():
    rng = np.random.default_rng(23)
    for top in random_topologies():
        X = rng.standard_normal((9, top.state_dim))
        batch = transition_batch(top, X)
        ref = X.copy()
        ref[:, 1:top.position_count] = X[:, :top.position_count - 1]
        ref[:, 0] = [oracle(top, x[top.network_input_slice], x[top.weight_slice])
                     for x in X]
        np.testing.assert_allclose(batch, ref, rtol=1e-13, atol=1e-13)


def test_predict_ahead_selector():
    top = Topology.weighted_sum(3, horizon_a=2)
    st = np.array([4.0, 7.0, 9.0, 1.0, 1.0, 0.0, 0.0])
    assert predict_ahead_one(top, st) == pytest.approx(4.0)


def test_predict_ahead_constant_average():
    b = 5
    top = Topology.weighted_sum(b, horizon_a=3)
    k = -2.25
    st = np.concatenate([np.full(top.position_count, k), np.full(b, 1 / b)])
    assert predict_ahead_one(top, st) == pytest.approx(k, abs=1e-12)


def test_predict_ahead_mlp_matches_dense_oracle():
    top = Topology.mlp([2, 2, 1], horizon_a=2)
    l1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    l2 = np.array([[1.0, 1.0]])
    w = np.concatenate([l1.ravel(), l2.ravel()])
    st = np.concatenate([[2.0, 3.0, 99.0], w])
    assert predict_ahead_one(top, st) == pytest.approx(dense_mlp_oracle([l1, l2], [2.0, 3.0]))


def test_predict_ahead_does_not_mutate():
    top = Topology.weighted_sum(3, horizon_a=2)
    st = np.arange(7.0)[None]
    copy = st.copy()
    predict_ahead_batch(top, st)
    assert np.array_equal(st, copy)


def test_predict_ahead_batch_matches_scalar():
    rng = np.random.default_rng(29)
    top = Topology.mlp([5, 5, 1], Activation.TANH, horizon_a=3)
    X = rng.standard_normal((6, top.state_dim))
    np.testing.assert_allclose(
        predict_ahead_batch(top, X),
        [oracle(top, x[:top.input_width], x[top.weight_slice]) for x in X],
        rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# transition_jacobian


def test_jacobian_weighted_sum_row0():
    top = Topology.weighted_sum(2, horizon_a=1)
    st = np.array([3.0, 2.0, 0.4, -0.7])
    J = transition_jacobian(top, st)
    np.testing.assert_allclose(J[0], [0.4, -0.7, 3.0, 2.0])


def test_jacobian_weight_rows_identity():
    rng = np.random.default_rng(31)
    for top in random_topologies():
        st = rng.standard_normal(top.state_dim)
        J = transition_jacobian(top, st)
        block = J[top.weight_slice, :]
        expected = np.zeros_like(block)
        for i, r in enumerate(range(top.position_count, top.state_dim)):
            expected[i, r] = 1.0
        np.testing.assert_array_equal(block, expected)


def test_jacobian_shift_rows():
    top = Topology.weighted_sum(3, horizon_a=2)
    st = np.arange(1.0, 1.0 + top.state_dim)
    J = transition_jacobian(top, st)
    for r in range(1, top.position_count):
        row = np.zeros(top.state_dim)
        row[r - 1] = 1.0
        np.testing.assert_array_equal(J[r], row)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2024)
    for top in random_topologies():
        for _ in range(20):
            st = rng.uniform(-1.0, 1.0, top.state_dim)
            J = transition_jacobian(top, st)
            J_fd = fd_jacobian(top, st)
            assert np.abs(J - J_fd).max() <= 1e-5


def test_forward_gradients_tanh_fd():
    # Jacobian row 0 holds the network gradients; at horizon 1 the network
    # reads the whole position block.
    top = Topology.mlp([4, 3, 1], Activation.TANH)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 4)
    w = rng.uniform(-1, 1, top.weight_count)
    row0 = transition_jacobian(top, np.concatenate([x, w]))[0]
    g_in, g_w = row0[top.network_input_slice], row0[top.weight_slice]
    step = 1e-6
    for j in range(4):
        hi, lo = x.copy(), x.copy()
        hi[j] += step
        lo[j] -= step
        fd = (forward_one(top, hi, w) - forward_one(top, lo, w)) / (2 * step)
        assert g_in[j] == pytest.approx(fd, abs=1e-8)
    for j in range(top.weight_count):
        hi, lo = w.copy(), w.copy()
        hi[j] += step
        lo[j] -= step
        fd = (forward_one(top, x, hi) - forward_one(top, x, lo)) / (2 * step)
        assert g_w[j] == pytest.approx(fd, abs=1e-8)


def test_lead_gradient_is_jacobian_row0_and_matches_finite_differences():
    rng = np.random.default_rng(2025)
    step = 1e-6
    for top in random_topologies():
        st = rng.uniform(-1.0, 1.0, top.state_dim)
        g = top.lead_gradient(st)
        np.testing.assert_array_equal(g, transition_jacobian(top, st)[0])
        hi = st + step * np.eye(top.state_dim)
        lo = st - step * np.eye(top.state_dim)
        fd = (top.lead_batch(hi) - top.lead_batch(lo)) / (2 * step)
        assert np.abs(g - fd).max() <= 1e-8


def test_linear_part_is_the_jacobian_without_row0():
    rng = np.random.default_rng(37)
    for top in random_topologies():
        A = transition_jacobian(top, rng.standard_normal(top.state_dim))
        A[0] = 0.0
        X = rng.standard_normal((4, top.state_dim))
        np.testing.assert_array_equal(top.linear_part(X), X @ A.T)
        P = X.T @ X
        np.testing.assert_array_equal(top.linear_part(top.linear_part(P).T),
                                      A @ P @ A.T)


def test_derived_sizes_are_computed_once():
    top = Topology.mlp([5, 5, 1], horizon_a=3)
    assert top.weight_slice is top.weight_slice
    assert (top.position_count, top.weight_count, top.state_dim) == (7, 30, 37)
    assert top == Topology.mlp([5, 5, 1], horizon_a=3)


def test_network_state_space_adapter():
    top = Topology.weighted_sum(2, horizon_a=1)
    st = np.array([3.0, 2.0, 1.0, 0.0])
    np.testing.assert_allclose(top.transition_batch(st[None])[0], [3.0, 3.0, 1.0, 0.0])
    np.testing.assert_allclose(top.lead_gradient(st), [1.0, 0.0, 3.0, 2.0])
