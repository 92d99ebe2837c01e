"""Classical comparison predictors.

Uniformly accelerated (polynomial-kinematics) Kalman models of orders 1-4,
the position-stack family (fixed first-row transitions over a window of past
positions, including a variant whose coefficients are re-regressed online
from a sliding window), and an exact sine-rotation reference model.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np


class StackKind(Enum):
    E2P = "E2P"
    E3P = "E3P"
    E4P = "E4P"
    E4PVW = "E4PVW"
    E4PRW = "E4PRW"
    E4PTRW = "E4PTRW"


# First-row coefficients of the companion transitions.  The difference-form
# rows collect p_{i+1} = p_i + sum_j lambda_j (p_{i-j} - p_{i-j-1}); the
# regressed row carries the published values as printed (sums to 1.0001).
_E4PRW_COEFFS = (1.2668, -0.0152, 0.0103, -0.2618)

STACK_COEFFS: dict[StackKind, tuple[float, ...]] = {
    StackKind.E2P: (2.0, -1.0),
    StackKind.E3P: (1.5, 0.0, -0.5),
    StackKind.E4P: (4.0 / 3.0, 0.0, 0.0, -1.0 / 3.0),
    StackKind.E4PVW: (1.5, -1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0),
    StackKind.E4PRW: _E4PRW_COEFFS,
    StackKind.E4PTRW: _E4PRW_COEFFS,
}

E4PTRW_WINDOW = 50
E4PTRW_MIN_PAIRS = 5


@dataclass
class StackModel:
    """Linear predictor over a window of past positions (newest first); F is
    the companion matrix of the first-row coefficients it is built from, and
    `forecaster` the one place its companion iteration is written."""

    coeffs: InitVar[np.ndarray]
    F: np.ndarray = field(init=False)

    def __post_init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        self.F = np.eye(coeffs.size, k=-1)
        self.F[0] = coeffs

    @property
    def k(self) -> int:
        return self.F.shape[0]

    def forecaster(self, n: int):
        """x[0] after n products F x (n = 0 reads x[0]), bound to n.  It
        holds F itself, not a copy, so a refit of F[0] in place applies.

        The products are ``F.dot(x)``: the bits of ``F @ x`` for a contiguous
        x, and of its contiguous copy for a strided one (``F @ x`` sums a
        strided x in another order), at about half the call cost."""
        dot = self.F.dot

        def forecast(x):
            for _ in range(n):
                x = dot(x)
            return float(x[0])

        return forecast


def stack_transition(kind: StackKind) -> StackModel:
    """Fixed companion transition for a stack kind.

    The online-regressed kind starts from the published offline coefficients
    and is refitted by its runner via `e4ptrw_refit`.
    """
    return StackModel(np.array(STACK_COEFFS[kind]))


def e4ptrw_refit(inputs, targets) -> np.ndarray:
    """Least-squares coefficients from an (m, 4) input block and m targets.

    Row i of ``inputs`` holds the four positions (newest first) that preceded
    ``targets[i]``.  Minimum-norm solution of ``targets ~ inputs @ coeffs``
    with no intercept, over the rows whose inputs and target are all finite.
    When every row is finite the block goes to `np.linalg.lstsq` as given, so
    the result depends on its row order (the E4PTRW step of `runners` keeps
    it oldest first).  With fewer than `E4PTRW_MIN_PAIRS` usable rows the
    published offline coefficients are returned unchanged.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    usable = np.isfinite(inputs).all(axis=1) & np.isfinite(targets)
    if not usable.all():
        inputs, targets = inputs[usable], targets[usable]
    if targets.size < E4PTRW_MIN_PAIRS:
        return np.array(_E4PRW_COEFFS)
    coeffs, *_ = np.linalg.lstsq(inputs, targets, rcond=None)
    return coeffs


@dataclass
class UamModel:
    """Polynomial-kinematics linear model of a given order (1..4), and the
    unscented model of `estimators.uke_step` for its fixed F: ``lead_batch``
    is row 0 of F, ``linear_part`` is A = F with row 0 zeroed."""

    order: int
    T: float
    F: np.ndarray = field(init=False)
    A: np.ndarray = field(init=False)
    # horizon n -> ([h^j], [j!]) for j < order, h = n T; see `multi_step_predict`
    _taylor: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order not in (1, 2, 3, 4):
            raise ValueError("order must be in 1..4")
        if not self.T > 0:
            raise ValueError("sample period must be > 0")
        k = self.order
        F = np.zeros((k, k))
        for i in range(k):
            for j in range(i, k):
                F[i, j] = self.T ** (j - i) / math.factorial(j - i)
        self.F = F
        self.A = F.copy()
        self.A[0] = 0.0

    def lead_batch(self, X: np.ndarray) -> np.ndarray:
        return X @ self.F[0]

    def linear_part(self, X: np.ndarray) -> np.ndarray:
        return X @ self.A.T


@dataclass
class SineModel:
    """Two-state rotation model exactly representing one sinusoid frequency."""

    omega: float
    T: float
    F: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be > 0 and finite, got {self.omega}")
        if not self.T > 0:
            raise ValueError("sample period must be > 0")
        c, s = np.cos(self.omega * self.T), np.sin(self.omega * self.T)
        self.F = np.array([[c, s], [-s, c]])

    def forecaster(self, n: int):
        """n-step forecast, the rotation by n*omega*T applied to the state,
        bound to a horizon: cos and sin are computed once."""
        angle = n * self.omega * self.T
        c, s = float(np.cos(angle)), float(np.sin(angle))
        return lambda state: float(c * state[0] + s * state[1])


def multi_step_predict(model, state, n: int) -> float:
    """Observed coordinate after n transitions of a stack or kinematic model.

    Stack models iterate their companion matrix (`StackModel.forecaster`).  A
    kinematic model sums the Taylor terms x_j h^j / j!, h = n T, over its
    state (position, velocity, acceleration, jerk) in the order j = 0, 1, ...;
    h^j and j! are computed once per model and n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(model, UamModel):
        taylor = model._taylor.get(n)
        if taylor is None:
            h = n * model.T
            taylor = model._taylor[n] = ([h ** j for j in range(model.order)],
                                         [math.factorial(j) for j in range(model.order)])
        total = 0.0
        for x, power, factorial in zip(np.asarray(state, dtype=float).tolist(), *taylor):
            total += x * power / factorial
        return total
    if isinstance(model, StackModel):
        return model.forecaster(n)(np.asarray(state, dtype=float))
    raise TypeError(f"unsupported model type {type(model)!r}")
