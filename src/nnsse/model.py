"""Augmented state-space model for online-learned trajectory prediction.

The state vector stacks a window of lagged positions with every weight of a
small surrogate network.  The network serves two roles: as the one-step
transition map driving the filter, and as the multi-step position predictor.
Only the newest position is observed.

State layout for horizon ``a``, input width ``b`` and weight count ``c``
(total length ``n = (a - 1) + b + c``):

* indices ``0 .. a+b-2``: positions, newest first,
* indices ``a+b-1 .. n-1``: weights, layer by layer, each layer's matrix
  flattened row-major (row = destination neuron).  There are no bias terms.

The one-step map is x' = A x + e_0 f(x), f the network output; the fixed A
has row 0 zero, shifts the positions down by one and keeps the weights.
`Topology` is the model the estimators step on: its methods ``lead_batch``,
``linear_part``, ``lead_gradient`` and ``transition_batch`` are this map.
A weighted sum is no separate kind: it is the one-layer network ``(b, 1)``,
which has no hidden layer and so no activation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class Activation(Enum):
    IDENTITY = "identity"
    TANH = "tanh"


@dataclass(frozen=True)
class Topology:
    """Architecture descriptor: layer widths, activation and horizon, and the
    one-step map of the state it lays out.

    ``layer_widths`` starts with the input width ``b`` and ends with the
    output width, which must be exactly 1.  The activation acts on hidden
    layers only, so the weighted sum ``(b, 1)`` is linear whatever it names.
    """

    layer_widths: tuple[int, ...]
    hidden_activation: Activation = Activation.IDENTITY
    horizon_a: int = 1

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("layer_widths needs at least an input and an output layer")
        if any(w <= 0 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if self.layer_widths[-1] != 1:
            raise ValueError("output width must be exactly 1")
        if self.horizon_a < 1:
            raise ValueError("horizon_a must be a positive integer")

    @classmethod
    def weighted_sum(cls, input_width: int, horizon_a: int = 1) -> "Topology":
        return cls((input_width, 1), Activation.IDENTITY, horizon_a)

    @classmethod
    def mlp(cls, layer_widths, hidden_activation: Activation = Activation.IDENTITY,
            horizon_a: int = 1) -> "Topology":
        return cls(tuple(layer_widths), hidden_activation, horizon_a)

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @cached_property
    def weight_count(self) -> int:
        """Total number of weights: sum of width products over adjacent layers."""
        widths = self.layer_widths
        return int(sum(widths[k] * widths[k + 1] for k in range(len(widths) - 1)))

    @cached_property
    def position_count(self) -> int:
        """Length of the position block: horizon + input width - 1."""
        return self.horizon_a + self.input_width - 1

    @cached_property
    def state_dim(self) -> int:
        return self.position_count + self.weight_count

    @cached_property
    def position_slice(self) -> slice:
        return slice(0, self.position_count)

    @cached_property
    def network_input_slice(self) -> slice:
        """Positions fed to the transition network: offsets a-1 .. a+b-2."""
        return slice(self.horizon_a - 1, self.position_count)

    @cached_property
    def weight_slice(self) -> slice:
        return slice(self.position_count, self.state_dim)

    def lead_batch(self, states: np.ndarray) -> np.ndarray:
        """Network output f, row 0 of the one-step map, at each row of states."""
        return forward_batch(self, states[:, self.network_input_slice],
                             states[:, self.weight_slice])

    def linear_part(self, X: np.ndarray) -> np.ndarray:
        """X A^T by index copies along the last axis, for the fixed linear part A
        of the one-step map; ``linear_part(linear_part(P).T)`` is A P A^T."""
        pos_end = self.position_count
        out = X.copy()
        out[..., 1:pos_end] = X[..., :pos_end - 1]
        out[..., 0] = 0.0
        return out

    def transition_batch(self, states: np.ndarray) -> np.ndarray:
        """One-step map of each row: the network output pushed onto the shifted
        positions, weights unchanged.  Process noise is the estimators' part."""
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] != self.state_dim:
            raise ValueError("states must be (m, n) for this topology")
        out = self.linear_part(states)
        out[:, 0] = self.lead_batch(states)
        return out

    def lead_gradient(self, state) -> np.ndarray:
        """Gradient (n,) of the network output f at one state, by backprop
        through the one-row forward pass; unread positions stay zero."""
        state = np.asarray(state, dtype=float)
        if state.shape != (self.state_dim,):
            raise ValueError("state does not match topology dimension")
        mats, hs = _layer_outputs(self, state[None, self.network_input_slice],
                                  state[None, self.weight_slice])
        tanh = self.hidden_activation is Activation.TANH
        delta = np.ones(1)
        grad_w = [np.empty(0)] * len(mats)
        for k in range(len(mats) - 1, -1, -1):
            grad_w[k] = np.outer(delta, hs[k][0]).ravel()
            delta = mats[k][0].T @ delta
            if k > 0 and tanh:
                # hs[k] is the activated hidden output, so tanh' = 1 - hs[k]^2
                delta = delta * (1.0 - hs[k][0] ** 2)
        grad = np.zeros(self.state_dim)
        grad[self.network_input_slice] = delta
        grad[self.weight_slice] = np.concatenate(grad_w)
        return grad


@dataclass
class NoiseSpec:
    """Process covariance Q, scalar measurement variance R, initial covariance."""

    Q: np.ndarray
    R: float
    Pi0: np.ndarray

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.Pi0 = np.asarray(self.Pi0, dtype=float)
        self.R = float(self.R)
        for name, M in (("Q", self.Q), ("Pi0", self.Pi0)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be a square matrix")
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must be finite")
            if (np.diagonal(M) < 0).any():
                raise ValueError(f"{name} must have a nonnegative diagonal")
            scale = max(1.0, float(np.abs(M).max()))
            if np.abs(M - M.T).max() > 1e-9 * scale:
                raise ValueError(f"{name} must be symmetric")
        if self.Q.shape != self.Pi0.shape:
            raise ValueError("Q and Pi0 must have the same shape")
        if not 0 < self.R < np.inf:
            raise ValueError(f"R must be finite and > 0, got {self.R}")


def _layer_outputs(topology: Topology, inputs: np.ndarray, weights: np.ndarray):
    """Row-paired forward pass: layer matrices (m, out, in) and layer inputs
    [h_0 = inputs, h_1, ..., h_L], with h_L the (m, 1) output."""
    m = inputs.shape[0]
    widths = topology.layer_widths
    tanh = topology.hidden_activation is Activation.TANH
    n_layers = len(widths) - 1
    mats, hs = [], [inputs]
    offset = 0
    for k in range(n_layers):
        n_in, n_out = widths[k], widths[k + 1]
        W = weights[:, offset:offset + n_in * n_out].reshape(m, n_out, n_in)
        offset += n_in * n_out
        h = np.einsum("moi,mi->mo", W, hs[-1])
        # activation on hidden layers only, never on the output node
        if k < n_layers - 1 and tanh:
            h = np.tanh(h)
        mats.append(W)
        hs.append(h)
    return mats, hs


def forward_batch(topology: Topology, inputs: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Network outputs for row-paired inputs (m, b) and flat weights (m, c)."""
    inputs = np.asarray(inputs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    rows = inputs.shape[:1]
    if (inputs.shape != rows + (topology.input_width,)
            or weights.shape != rows + (topology.weight_count,)):
        raise ValueError(f"expected (m, {topology.input_width}) inputs and "
                         f"(m, {topology.weight_count}) weights, got "
                         f"{inputs.shape} and {weights.shape}")
    if len(topology.layer_widths) == 2:  # weighted sum: one dot product per row
        return np.einsum("ij,ij->i", inputs, weights)
    return _layer_outputs(topology, inputs, weights)[1][-1][:, 0]


# The one-step map as a free function of (topology, states).
transition_batch = Topology.transition_batch


def predict_ahead_batch(topology: Topology, states: np.ndarray) -> np.ndarray:
    """Horizon-step position forecast of each row from its newest b positions
    and its weights."""
    states = np.asarray(states, dtype=float)
    return forward_batch(topology, states[:, :topology.input_width],
                         states[:, topology.weight_slice])


def transition_jacobian(topology: Topology, state) -> np.ndarray:
    """Dense Jacobian of the one-step map at one state: A with row 0 set to
    `lead_gradient`.  No estimator forms it."""
    J = topology.linear_part(np.eye(topology.state_dim)).T
    J[0] = topology.lead_gradient(state)
    return J

