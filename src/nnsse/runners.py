"""Per-estimator stepping loops used by the benchmark harness.

A runner consumes one measurement per step and emits the horizon-step
position forecast.  Construction is driven by plain parameter dictionaries
(see `build_runner`) so the CLI config maps onto it directly.  Every random
choice derives from (run seed, estimator name), making runs reproducible.
"""

from __future__ import annotations

import math
import zlib
from functools import partial

import numpy as np

from . import model as nnmodel
from .baselines import (
    StackKind,
    StackModel,
    UamModel,
    E4PTRW_MIN_PAIRS,
    E4PTRW_WINDOW,
    e4ptrw_refit,
    multi_step_predict,
    sine_reference_model,
    stack_transition,
    uam_model,
)
from .estimators import (
    GaussianBelief,
    ParticleSet,
    UkeParams,
    eke_step,
    lke_step,
    pe_step,
    uke_step,
)
from .model import Activation, NetworkStateSpace, NoiseSpec, Topology


class ConfigError(ValueError):
    """Invalid experiment or estimator configuration."""


# Shipped defaults; every value is overridable per estimator section.
DEFAULTS = {
    "r": 1.0,
    "uam_order": 3,
    # White-noise intensity on the highest derivative (see _uam_noise),
    # tuned to the kinematic model's own best steady error on the
    # 200 Hz / amplitude-10 / unit-noise sine benchmark.
    "uam_q": 1e8,
    "uam_p0": 100.0,
    "sine_q": 1e-6,
    "sine_p0": 100.0,
    "nnssm_q_pos": 1e-4,
    "nnssm_q_w": 1e-6,
    "nnssm_p0_pos": 1.0,
    "nnssm_p0_w": 0.1,
    "mlp_init_scale": 0.1,
    "particles": 1000,
    # The particle cloud needs a tighter initial weight spread (explosive
    # weight lineages underflow every likelihood within ~100 steps) and some
    # position roughening to keep diversity through resampling.
    "pe_p0_w": 1e-4,
    "pe_q_pos": 1e-3,
    "stack_q": 1e-4,
}


def estimator_rng(run_seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible stream per (run seed, estimator name)."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([run_seed, tag])))


class Runner:
    """Base runner: feed measurements, collect horizon-step forecasts."""

    def __init__(self, name: str, horizon: int):
        self.name = name
        self.horizon = int(horizon)
        self.warmup_hint = 1

    def step(self, z: float) -> float:
        raise NotImplementedError

    def covariance(self) -> np.ndarray | None:
        return None


class GaussianRunner(Runner):
    """Kalman-family runner: one step function over a Gaussian belief.

    ``step_fn(belief, z)`` is `lke_step`, `uke_step` or `eke_step` with its
    model and noise already bound.  The forecast is the plug-in
    ``predict_fn(posterior mean)``, not the unscented expectation of the
    forecast map; `PeRunner` instead forecasts the weighted average of the
    per-particle forecasts.
    """

    def __init__(self, name, horizon, step_fn, P0, predict_fn, init_mean_fn,
                 warmup_hint):
        super().__init__(name, horizon)
        self.step_fn = step_fn
        self.P0 = P0
        self.predict_fn = predict_fn
        self.init_mean_fn = init_mean_fn
        self.belief: GaussianBelief | None = None
        self.warmup_hint = warmup_hint

    def step(self, z: float) -> float:
        if self.belief is None:
            self.belief = GaussianBelief(self.init_mean_fn(z), self.P0)
        else:
            self.belief, _ = self.step_fn(self.belief, z)
        return float(self.predict_fn(self.belief.mean))

    def covariance(self):
        return None if self.belief is None else self.belief.cov


class PeRunner(Runner):
    def __init__(self, name, horizon, model, noise: NoiseSpec, n_particles,
                 predict_batch_fn, init_mean_fn, rng, warmup_hint=1):
        super().__init__(name, horizon)
        self.model = model
        self.noise = noise
        self.n_particles = int(n_particles)
        self.predict_batch_fn = predict_batch_fn
        self.init_mean_fn = init_mean_fn
        self.rng = rng
        self.particles: ParticleSet | None = None
        self.warmup_hint = warmup_hint

    def step(self, z: float) -> float:
        if self.particles is None:
            mean = self.init_mean_fn(z)
            spread = np.sqrt(np.diagonal(self.noise.Pi0))
            cloud = mean + self.rng.standard_normal((self.n_particles, mean.size)) * spread
            self.particles = ParticleSet(cloud, np.full(self.n_particles, 1.0 / self.n_particles))
        else:
            self.particles, _ = pe_step(self.model, self.noise, self.particles,
                                        z, self.rng)
        per_particle = self.predict_batch_fn(self.particles.particles)
        return float(self.particles.weights @ per_particle)


class OpenLoopStackRunner(Runner):
    """Deterministic stack predictor applied directly to raw measurements.

    ``window`` holds the last k measurements, newest first; until k have
    arrived the forecast is the last measurement (persistence).
    """

    def __init__(self, name, horizon, stack: StackModel):
        super().__init__(name, horizon)
        self.stack = stack
        self.window = np.zeros(stack.k)
        self.seen = 0
        self.warmup_hint = stack.k

    def step(self, z: float) -> float:
        z = float(z)
        self.window[1:] = self.window[:-1]
        self.window[0] = z
        self.seen += 1
        if self.seen < self.stack.k:
            return z
        return multi_step_predict(self.stack, self.window, self.horizon)


class E4ptrwRunner(Runner):
    """Stack predictor whose first row is re-regressed from a sliding window.

    ``recent`` holds the last four measurements, newest first.  Every
    measurement from the fifth on adds one regression row: the ``recent`` it
    followed as inputs and itself as target.  ``inputs`` (W, 4) and
    ``targets`` (W,) keep the last W rows, oldest first, and shift up by one
    row per step.  Once W rows have accumulated, every step refits the
    coefficients from them with `e4ptrw_refit`; before that the published
    offline coefficients apply.  Until four measurements have arrived the
    forecast is the last measurement (persistence).
    """

    def __init__(self, name, horizon, window_len=E4PTRW_WINDOW):
        super().__init__(name, horizon)
        self.window_len = int(window_len)
        self.recent = np.zeros(4)
        self.inputs = np.zeros((self.window_len, 4))
        self.targets = np.zeros(self.window_len)
        self.seen = 0
        self.stack = stack_transition(StackKind.E4PTRW)
        self.warmup_hint = 5

    def step(self, z: float) -> float:
        z = float(z)
        if self.seen >= 4:
            self.inputs[:-1] = self.inputs[1:]
            self.inputs[-1] = self.recent
            self.targets[:-1] = self.targets[1:]
            self.targets[-1] = z
        self.recent[1:] = self.recent[:-1]
        self.recent[0] = z
        self.seen += 1
        if self.seen - 4 >= self.window_len:
            self.stack = StackModel(StackKind.E4PTRW,
                                    e4ptrw_refit(self.inputs, self.targets))
        if self.seen < 4:
            return z
        return multi_step_predict(self.stack, self.recent, self.horizon)


# ---------------------------------------------------------------------------
# construction from parameter dictionaries


class RunContext:
    """Trajectory-level facts shared by all runners of one run."""

    def __init__(self, horizon: int, sample_period: float, seed: int,
                 sine_omega: float | None = None):
        self.horizon = int(horizon)
        self.sample_period = float(sample_period)
        self.seed = int(seed)
        self.sine_omega = sine_omega


def _pop_float(params, key, default):
    return float(params.pop(key, default))


def _pop_int(params, key, default):
    return int(params.pop(key, default))


def _uam_noise(m: UamModel, q: float, r: float, p0: float) -> NoiseSpec:
    """Process noise for the kinematic model: white noise on the highest
    derivative with intensity q, integrated over one period."""
    k = m.order
    T = m.T
    g = np.array([T ** (k - j) / math.factorial(k - j) for j in range(k)])
    Q = q * np.outer(g, g)
    return NoiseSpec(Q, r, p0 * np.eye(k))


def _parse_network(params, horizon):
    net = str(params.pop("network", "weighted_sum")).strip().lower()
    activation = str(params.pop("activation", "identity")).strip().lower()
    act = {"identity": Activation.IDENTITY, "tanh": Activation.TANH}.get(activation)
    if act is None:
        raise ConfigError(f"unknown activation {activation!r}")
    if net in ("weighted_sum", "ws"):
        b = _pop_int(params, "input_width", 25)
        if act is not Activation.IDENTITY:
            raise ConfigError("weighted_sum network has no hidden activation")
        return Topology.weighted_sum(b, horizon_a=horizon)
    try:
        widths = [int(w) for w in net.replace("x", "-").split("-")]
    except ValueError:
        raise ConfigError(f"cannot parse network spec {net!r}") from None
    params.pop("input_width", None)
    return Topology.mlp(widths, act, horizon_a=horizon)


def _nnssm_noise(top: Topology, params) -> NoiseSpec:
    q_pos = _pop_float(params, "q_pos", DEFAULTS["nnssm_q_pos"])
    q_w = _pop_float(params, "q_w", DEFAULTS["nnssm_q_w"])
    p0_pos = _pop_float(params, "p0_pos", DEFAULTS["nnssm_p0_pos"])
    p0_w = _pop_float(params, "p0_w", DEFAULTS["nnssm_p0_w"])
    r = _pop_float(params, "r", DEFAULTS["r"])
    n_pos, c = top.position_count, top.weight_count
    Q = np.diag([q_pos] * n_pos + [q_w] * c)
    P0 = np.diag([p0_pos] * n_pos + [p0_w] * c)
    return NoiseSpec(Q, r, P0)


def _nnssm_init_fn(top: Topology, rng: np.random.Generator, params):
    """Initial augmented mean: position block at the first measurement.

    Weighted-sum weights start as the newest-position selector (persistence
    predictor); multilayer weights start uniform in +-scale.
    """
    scale = _pop_float(params, "init_scale", DEFAULTS["mlp_init_scale"])
    if top.kind is nnmodel.TopologyKind.WEIGHTED_SUM:
        w0 = np.zeros(top.weight_count)
        w0[0] = 1.0
    else:
        w0 = rng.uniform(-scale, scale, top.weight_count)

    def init(z: float) -> np.ndarray:
        return np.concatenate([np.full(top.position_count, z), w0])

    return init


def _uke_params(params) -> UkeParams:
    default = UkeParams()
    return UkeParams(_pop_float(params, "alpha", default.alpha),
                     _pop_float(params, "beta", default.beta),
                     _pop_float(params, "kappa", default.kappa))


def _reject_leftovers(name, params):
    if params:
        raise ConfigError(f"estimator {name!r}: unknown parameter(s) "
                          f"{sorted(params)}")


def build_runner(name: str, kind: str, params: dict, ctx: RunContext) -> Runner:
    """Construct a runner from its config section."""
    params = dict(params)
    kind = kind.strip().lower()
    a, T = ctx.horizon, ctx.sample_period

    if kind in ("uam_lke", "uam_uke"):
        order = _pop_int(params, "order", DEFAULTS["uam_order"])
        m = uam_model(order, T)
        noise = _uam_noise(m, _pop_float(params, "q", DEFAULTS["uam_q"]),
                           _pop_float(params, "r", DEFAULTS["r"]),
                           _pop_float(params, "p0", DEFAULTS["uam_p0"]))

        def init(z, k=order):
            mean = np.zeros(k)
            mean[0] = z
            return mean

        if kind == "uam_lke":
            step_fn = partial(lke_step, m.F, m.H, noise)
        else:
            step_fn = partial(uke_step, _LinearAdapter(m.F), noise,
                              params=_uke_params(params))
        runner = GaussianRunner(name, a, step_fn, noise.Pi0,
                                lambda mean: multi_step_predict(m, mean, a),
                                init, order)
        _reject_leftovers(name, params)
        return runner

    if kind == "sine_lke":
        omega_default = ctx.sine_omega if ctx.sine_omega else 1.0
        omega = _pop_float(params, "omega", omega_default)
        m = sine_reference_model(omega, T)
        q = _pop_float(params, "q", DEFAULTS["sine_q"])
        r = _pop_float(params, "r", DEFAULTS["r"])
        p0 = _pop_float(params, "p0", DEFAULTS["sine_p0"])
        noise = NoiseSpec(q * np.eye(2), r, p0 * np.eye(2))
        runner = GaussianRunner(
            name, a, partial(lke_step, m.F, m.H, noise), noise.Pi0,
            lambda mean: m.predict_n(mean, a),
            lambda z: np.array([z, 0.0]), 2)
        _reject_leftovers(name, params)
        return runner

    if kind in ("nnsse_uke", "nnsse_eke", "nnsse_pe"):
        top = _parse_network(params, a)
        if kind == "nnsse_pe":
            params.setdefault("p0_w", DEFAULTS["pe_p0_w"])
            params.setdefault("q_pos", DEFAULTS["pe_q_pos"])
        noise = _nnssm_noise(top, params)
        rng = estimator_rng(ctx.seed, name)
        init = _nnssm_init_fn(top, rng, params)
        net = NetworkStateSpace(top)
        if kind == "nnsse_pe":
            n_particles = _pop_int(params, "particles", DEFAULTS["particles"])
            runner = PeRunner(
                name, a, net, noise, n_particles,
                lambda X: nnmodel.predict_ahead_batch(top, X),
                init, rng, warmup_hint=top.input_width)
        else:
            if kind == "nnsse_uke":
                step_fn = partial(uke_step, net, noise, params=_uke_params(params))
            else:
                step_fn = partial(eke_step, net, noise)
            runner = GaussianRunner(
                name, a, step_fn, noise.Pi0,
                lambda mean: nnmodel.predict_ahead(top, mean),
                init, top.input_width)
        _reject_leftovers(name, params)
        return runner

    if kind == "stack":
        stack_name = str(params.pop("stack", "E4P")).upper()
        try:
            skind = StackKind[stack_name]
        except KeyError:
            raise ConfigError(f"unknown stack kind {stack_name!r}") from None
        if skind is StackKind.E4PTRW:
            raise ConfigError("use kind=e4ptrw for the online-regressed stack")
        mode = str(params.pop("mode", "open")).strip().lower()
        stack = stack_transition(skind)
        if mode == "open":
            runner = OpenLoopStackRunner(name, a, stack)
        elif mode == "lke":
            q = _pop_float(params, "q", DEFAULTS["stack_q"])
            r = _pop_float(params, "r", DEFAULTS["r"])
            p0 = _pop_float(params, "p0", 1.0)
            noise = NoiseSpec(q * np.eye(stack.k), r, p0 * np.eye(stack.k))

            def init(z, k=stack.k):
                return np.full(k, z)

            runner = GaussianRunner(
                name, a, partial(lke_step, stack.F, stack.H, noise), noise.Pi0,
                lambda mean: multi_step_predict(stack, mean, a), init, stack.k)
        else:
            raise ConfigError(f"unknown stack mode {mode!r}")
        _reject_leftovers(name, params)
        return runner

    if kind == "e4ptrw":
        window = _pop_int(params, "window", E4PTRW_WINDOW)
        if window < E4PTRW_MIN_PAIRS:
            raise ConfigError(f"estimator {name!r}: e4ptrw window must be >= "
                              f"{E4PTRW_MIN_PAIRS}, got {window}")
        runner = E4ptrwRunner(name, a, window)
        _reject_leftovers(name, params)
        return runner

    raise ConfigError(f"unknown estimator kind {kind!r}")


class _LinearAdapter:
    """Wrap a fixed matrix as the batched transition protocol."""

    def __init__(self, F):
        self.F = np.asarray(F, dtype=float)

    def transition_batch(self, X):
        return X @ self.F.T
