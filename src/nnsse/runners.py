"""Per-estimator stepping loops used by the benchmark harness.

A runner consumes one measurement per step and emits the horizon-step
position forecast.  Every kind runs in one `FilterRunner` over the (state,
innovation) step contract of `estimators`: the Kalman and particle kinds on a
belief or a particle cloud, the open-loop stack predictors on a window of the
raw measurements (`StackWindow`).  Construction is driven by plain parameter
dictionaries (see `build_runner` and its key table `ESTIMATOR_KINDS`) so the
CLI config maps onto it directly.  Every random choice derives from (run
seed, estimator name), making runs reproducible.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import model as nnmodel
from .baselines import (
    SineModel,
    StackKind,
    StackModel,
    UamModel,
    E4PTRW_MIN_PAIRS,
    E4PTRW_WINDOW,
    e4ptrw_refit,
    multi_step_predict,
    stack_transition,
)
from .estimators import (
    GaussianBelief,
    ParticleSet,
    SteadyStateLke,
    UkeParams,
    diagonal_gaussian,
    eke_step,
    lke_step,  # noqa: F401  (traced and checked as nnsse.runners.lke_step by perfbench)
    pe_step,
    uke_step,
)
from .model import Activation, NoiseSpec, Topology


class ConfigError(ValueError):
    """Invalid experiment or estimator configuration."""


def estimator_rng(run_seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible stream per (run seed, estimator name)."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([run_seed, tag])))


class Runner:
    """Base runner: feed measurements, collect horizon-step forecasts.

    ``size`` is the number of state entries a step carries: the state
    dimension n, or particles x n for a particle cloud.  `bench` estimates a
    row's step cost from it."""

    def __init__(self, name: str, warmup_hint: int = 1, size: int = 1):
        self.name = name
        self.warmup_hint = warmup_hint
        self.size = size

    def step(self, z: float) -> float:
        raise NotImplementedError


class FilterRunner(Runner):
    """The runner of every kind: a `GaussianBelief` state for the Kalman
    kinds, a `ParticleSet` for the particle kind and a `StackWindow` for the
    open-loop stacks.

    ``init_fn(z)`` makes the state at the first measurement, ``step_fn(state,
    z)`` returns (next state, innovation z - predicted observation) and
    ``forecast_fn(state)`` the horizon-step forecast; the builders bind model,
    noise, horizon, random stream and buffers into them.  The linear kinds
    step through a `SteadyStateLke`: `lke_step` on the first runner of a run
    to reach each step of its data-free covariance schedule, shared through
    ``RunContext.lke_schedules``, and a mean update with that step's gain on
    every other runner and past the fixed point.  A Kalman forecast is the
    plug-in forecast at the posterior mean, not the unscented expectation of
    the forecast map; the particle forecast is the weighted average of the
    per-particle forecasts, and an open-loop stack iterates its carried
    one-step prediction.
    """

    def __init__(self, name, init_fn, step_fn, forecast_fn, warmup_hint, size):
        super().__init__(name, warmup_hint, size)
        self.init_fn = init_fn
        self.step_fn = step_fn
        self.forecast_fn = forecast_fn
        self.state: GaussianBelief | ParticleSet | StackWindow | None = None

    def step(self, z: float) -> float:
        if self.state is None:
            self.state = self.init_fn(z)
        else:
            self.state, _ = self.step_fn(self.state, z)
        return float(self.forecast_fn(self.state))


@dataclass(slots=True)
class StackWindow:
    """Open-loop stack state, which each step updates in place and returns:
    the last k measurements, newest first; how many measurements have
    arrived; and the window's one-step prediction F @ window once k have
    (None before)."""

    window: np.ndarray
    seen: int = 0
    prediction: np.ndarray | None = None


def _stack_step(stack: StackModel, state: StackWindow, z: float):
    """z enters the window.  The innovation is z minus the carried one-step
    prediction, or minus the last measurement until k have arrived."""
    window, prediction = state.window, state.prediction
    innovation = z - (window[0] if prediction is None else prediction[0])
    window[1:] = window[:-1]
    window[0] = z
    state.seen += 1
    state.prediction = stack.F.dot(window) if state.seen >= len(window) else None
    return state, innovation


def _e4ptrw_step(stack: StackModel, inputs: np.ndarray, targets: np.ndarray,
                 state: StackWindow, z: float):
    """`_stack_step` on the E4PTRW stack, whose first row is re-regressed from
    a sliding window of measurements before z enters its window.

    Every measurement from the fifth on adds one regression row: the window
    of four it followed as inputs and itself as target.  ``inputs`` (W, 4)
    and ``targets`` (W,) keep the last W rows, oldest first, and shift up by
    one row per step.  Once W rows have accumulated, every step refits
    ``stack.F[0]`` in place with `e4ptrw_refit`; before that the published
    offline coefficients apply.  The innovation reads the prediction made
    with the coefficients in force before z arrived.
    """
    seen = state.seen
    if seen >= 4:
        inputs[:-1] = inputs[1:]
        inputs[-1] = state.window
        targets[:-1] = targets[1:]
        targets[-1] = z
        if seen - 3 >= len(targets):
            stack.F[0] = e4ptrw_refit(inputs, targets)
    return _stack_step(stack, state, z)


def _open_loop_runner(name, stack: StackModel, step_fn, horizon: int,
                      warmup_hint: int) -> Runner:
    """A stack applied to the raw measurements: the forecast is the last
    measurement until k have arrived, then the carried one-step prediction
    taken ``horizon`` - 1 steps further."""
    ahead = stack.forecaster(horizon - 1)
    return FilterRunner(
        name, lambda z: step_fn(StackWindow(np.zeros(stack.k)), z)[0], step_fn,
        lambda state: state.window[0] if state.prediction is None else ahead(state.prediction),
        warmup_hint, stack.k)


# ---------------------------------------------------------------------------
# construction from parameter dictionaries


@dataclass(frozen=True)
class RunContext:
    """Trajectory-level facts shared by all runners of one run, and the
    `SteadyStateLke` schedules it shares with the other seeds of its
    experiment (None: each linear runner keeps a private one)."""

    horizon: int
    sample_period: float
    seed: int
    sine_omega: float | None = None
    lke_schedules: dict | None = field(default=None, compare=False, repr=False)


def _uam_noise(m: UamModel, q: float, r: float, p0: float) -> NoiseSpec:
    """Process noise for the kinematic model: white noise on the highest
    derivative with intensity q, integrated over one period."""
    k = m.order
    T = m.T
    g = np.array([T ** (k - j) / math.factorial(k - j) for j in range(k)])
    Q = q * np.outer(g, g)
    return NoiseSpec(Q, r, p0 * np.eye(k))


def _uam_runner(name, kind, p, ctx: RunContext) -> Runner:
    a = ctx.horizon
    m = UamModel(p["order"], ctx.sample_period)
    noise = _uam_noise(m, p["q"], p["r"], p["p0"])
    if kind == "uam_lke":
        step_fn = SteadyStateLke(m.F, noise, ctx.lke_schedules)
    else:
        step_fn = partial(uke_step, m, noise, params=_uke_params(p, m.order))
    rest = np.zeros(m.order - 1)  # the derivatives start at zero
    return FilterRunner(name, lambda z: GaussianBelief(np.concatenate([[z], rest]), noise.Pi0),
                        step_fn, lambda belief: multi_step_predict(m, belief.mean, a), m.order,
                        m.order)


def _sine_runner(name, kind, p, ctx: RunContext) -> Runner:
    omega = float(ctx.sine_omega or 1.0) if p["omega"] is None else p["omega"]
    m = SineModel(omega, ctx.sample_period)
    noise = NoiseSpec(p["q"] * np.eye(2), p["r"], p["p0"] * np.eye(2))
    forecast = m.forecaster(ctx.horizon)
    return FilterRunner(name, lambda z: GaussianBelief(np.array([z, 0.0]), noise.Pi0),
                        SteadyStateLke(m.F, noise, ctx.lke_schedules),
                        lambda belief: forecast(belief.mean), 2, 2)


def _uke_params(p, n: int) -> UkeParams:
    for key in ("alpha", "beta", "kappa"):
        if not math.isfinite(p[key]):
            raise ValueError(f"{key} must be finite, got {p[key]}")
    params = UkeParams(p["alpha"], p["beta"], p["kappa"])
    if not n + params.lam(n) > 0:  # `uke_sigma_points` refuses it at step 1
        raise ValueError(f"n + lambda = alpha^2 (n + kappa) must be positive, n = {n}")
    return params


_WEIGHTED_SUM = ("weighted_sum", "ws")  # spellings of the one-layer network (b, 1)


def _parse_network(p, horizon) -> Topology:
    net = p["network"].strip().lower()
    activation = p["activation"].strip().lower()
    act = {"identity": Activation.IDENTITY, "tanh": Activation.TANH}.get(activation)
    if act is None:
        raise ConfigError(f"unknown activation {activation!r}")
    width = p["input_width"]
    if net in _WEIGHTED_SUM:
        widths = [25 if width is None else width, 1]
    else:
        try:
            widths = [int(w) for w in net.replace("x", "-").split("-")]
        except ValueError:
            raise ConfigError(f"cannot parse network spec {net!r}") from None
        if width is not None and width != widths[0]:
            raise ConfigError(f"input_width {width} is not the first width of {net!r}")
    if len(widths) == 2 and act is not Activation.IDENTITY:
        raise ConfigError(f"{net} network has no hidden activation")
    return Topology.mlp(widths, act, horizon_a=horizon)


def _nnssm_init_fn(p, top: Topology, rng: np.random.Generator):
    """Initial augmented mean: position block at the first measurement.

    A network spelled weighted_sum or ws starts as the newest-position
    selector (persistence predictor); layer widths, 25-1 included, start
    uniform in +-init_scale (finite and >= 0, checked under either spelling).
    """
    scale = p["init_scale"]
    if not 0 <= scale < math.inf:
        raise ValueError(f"init_scale must be finite and >= 0, got {scale}")
    if p["network"].strip().lower() in _WEIGHTED_SUM:
        w0 = np.eye(1, top.weight_count)[0]
    else:
        w0 = rng.uniform(-scale, scale, top.weight_count)
    return lambda z: np.concatenate([np.full(top.position_count, z), w0])


def _nnsse_runner(name, kind, p, ctx: RunContext) -> Runner:
    top = _parse_network(p, ctx.horizon)
    n_pos, c = top.position_count, top.weight_count
    noise = NoiseSpec(np.diag([p["q_pos"]] * n_pos + [p["q_w"]] * c), p["r"],
                      np.diag([p["p0_pos"]] * n_pos + [p["p0_w"]] * c))
    rng = estimator_rng(ctx.seed, name)
    mean_at = _nnssm_init_fn(p, top, rng)
    if kind == "nnsse_pe":
        count = p["particles"]
        if count < 2:
            raise ValueError(f"particles must be >= 2, got {count}")
        spread = np.sqrt(np.diagonal(noise.Pi0))

        def cloud_at(z):
            """The first cloud, drawn from ``rng`` at the first measurement."""
            cloud = diagonal_gaussian(mean_at(z), spread, count, rng)
            return ParticleSet(cloud, np.full(count, 1.0 / count))

        def forecast(cloud):
            return cloud.weights @ nnmodel.predict_ahead_batch(top, cloud.particles)

        return FilterRunner(name, cloud_at, partial(pe_step, top, noise, rng=rng), forecast,
                            top.input_width, count * top.state_dim)
    if kind == "nnsse_uke":
        step_fn = partial(uke_step, top, noise, params=_uke_params(p, top.state_dim))
    else:
        step_fn = partial(eke_step, top, noise)
    return FilterRunner(name, lambda z: GaussianBelief(mean_at(z), noise.Pi0), step_fn,
                        lambda belief: nnmodel.predict_ahead_batch(top, belief.mean[None])[0],
                        top.input_width, top.state_dim)


def _stack_runner(name, kind, p, ctx: RunContext) -> Runner:
    a = ctx.horizon
    stack_name = p["stack"].upper()
    try:
        skind = StackKind[stack_name]
    except KeyError:
        raise ConfigError(f"unknown stack kind {stack_name!r}") from None
    if skind is StackKind.E4PTRW:
        raise ConfigError("use kind=e4ptrw for the online-regressed stack")
    mode = p["mode"].strip().lower()
    stack = stack_transition(skind)
    k = stack.k
    if mode == "open":
        return _open_loop_runner(name, stack, partial(_stack_step, stack), a, k)
    if mode != "lke":
        raise ConfigError(f"unknown stack mode {mode!r}")
    noise = NoiseSpec(p["q"] * np.eye(k), p["r"], p["p0"] * np.eye(k))
    forecast = stack.forecaster(a)
    return FilterRunner(name, lambda z: GaussianBelief(np.full(k, z), noise.Pi0),
                        SteadyStateLke(stack.F, noise, ctx.lke_schedules),
                        lambda belief: forecast(belief.mean), k, k)


def _e4ptrw_runner(name, kind, p, ctx: RunContext) -> Runner:
    window = p["window"]
    if window < E4PTRW_MIN_PAIRS:
        raise ConfigError(f"e4ptrw window must be >= {E4PTRW_MIN_PAIRS}, got {window}")
    stack = stack_transition(StackKind.E4PTRW)
    step_fn = partial(_e4ptrw_step, stack, np.zeros((window, 4)), np.zeros(window))
    # the first regression row comes with the fifth measurement
    return _open_loop_runner(name, stack, step_fn, ctx.horizon, 5)


_UAM_KEYS = {
    "order": 3,
    # White-noise intensity on the highest derivative (see _uam_noise),
    # tuned to the kinematic model's own best steady error on the
    # 200 Hz / amplitude-10 / unit-noise sine benchmark.
    "q": 1e8,
    "r": 1.0,
    "p0": 100.0,
}
_UKE_KEYS = {f.name: f.default for f in fields(UkeParams)}
_NNSSE_KEYS = {
    "network": "weighted_sum",  # weighted_sum | ws | layer widths such as 5-5-1
    "activation": "identity",   # identity | tanh, on hidden layers only
    "input_width": int,         # unset: 25 for a weighted sum, an MLP's first width
    "q_pos": 1e-4,
    "q_w": 1e-6,
    "p0_pos": 1.0,
    "p0_w": 0.1,
    "r": 1.0,
    "init_scale": 0.1,          # MLP weights start uniform in +-init_scale
}
# `stack` accepts these only with mode = lke.
_STACK_LKE_KEYS = {"q": 1e-4, "r": 1.0, "p0": 1.0}

# The one table of estimator kinds: kind -> (builder, accepted keys with their
# shipped defaults).  Every kind builds a `FilterRunner`.  Every key is
# overridable per estimator section and any other key is rejected.  A
# configured value is converted to the type of its default.  A type in place
# of a default marks a key that is None when unset and converted to that type
# when set.
ESTIMATOR_KINDS = {
    "uam_lke": (_uam_runner, _UAM_KEYS),
    "uam_uke": (_uam_runner, {**_UAM_KEYS, **_UKE_KEYS}),
    # omega unset: the sine trajectory's own frequency, else 1.0
    "sine_lke": (_sine_runner, {"omega": float, "q": 1e-6, "r": 1.0, "p0": 100.0}),
    "nnsse_uke": (_nnsse_runner, {**_NNSSE_KEYS, **_UKE_KEYS}),
    "nnsse_eke": (_nnsse_runner, _NNSSE_KEYS),
    # The particle cloud needs a tighter initial weight spread (explosive
    # weight lineages underflow every likelihood within ~100 steps) and some
    # position roughening to keep diversity through resampling.
    "nnsse_pe": (_nnsse_runner, {**_NNSSE_KEYS, "q_pos": 1e-3, "p0_w": 1e-4,
                                 "particles": 1000}),
    "stack": (_stack_runner, {"stack": "E4P", "mode": "open"}),
    "e4ptrw": (_e4ptrw_runner, {"window": E4PTRW_WINDOW}),
}


def build_runner(name: str, kind: str, params: dict, ctx: RunContext) -> Runner:
    """Construct a runner from its config section; see `ESTIMATOR_KINDS`.  A
    value its builder refuses is a `ConfigError` that names the estimator."""
    kind = kind.strip().lower()
    if kind not in ESTIMATOR_KINDS:
        raise ConfigError(f"unknown estimator kind {kind!r}")
    build, defaults = ESTIMATOR_KINDS[kind]
    if kind == "stack" and str(params.get("mode", "open")).strip().lower() == "lke":
        defaults = {**defaults, **_STACK_LKE_KEYS}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"estimator {name!r}: unknown parameter(s) {unknown}")
    values = {key: None if isinstance(d, type) else d for key, d in defaults.items()}
    for key, value in params.items():
        default = defaults[key]
        convert = default if isinstance(default, type) else type(default)
        try:
            values[key] = convert(value)
        except (TypeError, ValueError):
            raise ConfigError(f"estimator {name!r}: {key} = {value!r} is not "
                              f"a valid {convert.__name__}") from None
    try:
        return build(name, kind, values, ctx)
    except ValueError as exc:  # ConfigError included: name the estimator
        raise ConfigError(f"estimator {name!r}: {exc}") from exc
