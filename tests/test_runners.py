"""Tests for runner construction from the estimator key table."""

from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np
import pytest

import nnsse.estimators
from nnsse.baselines import (
    SineModel,
    StackKind,
    UamModel,
    e4ptrw_refit,
    multi_step_predict,
    stack_transition,
)
from nnsse.cli import EXIT_CONFIG, main
from nnsse.config import load_config
from nnsse.estimators import GaussianBelief, UkeParams, lke_step
from nnsse.model import Topology
from nnsse.runners import (
    ESTIMATOR_KINDS,
    ConfigError,
    FilterRunner,
    RunContext,
    build_runner,
    estimator_rng,
)
from nnsse.signals import gen_sine

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def ctx():
    return RunContext(3, 0.005, 1, 2.0 * np.pi)


@pytest.mark.parametrize("kind, params, key", [
    ("nnsse_eke", {"alpha": "1.0"}, "alpha"),
    ("nnsse_uke", {"particles": "10"}, "particles"),
    ("stack", {"stack": "E2P", "mode": "open", "q": "1e-4"}, "q"),
    ("sine_lke", {"order": "3"}, "order"),
    ("e4ptrw", {"q": "1e-4"}, "q"),
    ("uam_lke", {"alpha": "1.0"}, "alpha"),
])
def test_key_outside_the_kind_is_rejected(kind, params, key):
    with pytest.raises(ConfigError) as err:
        build_runner("X", kind, params, ctx())
    assert str(err.value) == f"estimator 'X': unknown parameter(s) ['{key}']"


def test_particle_and_extended_defaults():
    top = Topology.weighted_sum(25, horizon_a=3)
    pe = build_runner("PE", "nnsse_pe", {}, ctx())
    _, noise = pe.step_fn.args
    assert np.all(np.diagonal(noise.Q)[top.position_slice] == 1e-3)
    assert np.all(np.diagonal(noise.Pi0)[top.weight_slice] == 1e-4)
    eke = build_runner("EKE", "nnsse_eke", {}, ctx())
    _, noise = eke.step_fn.args
    assert np.all(np.diagonal(noise.Q)[top.position_slice] == 1e-4)
    assert np.all(np.diagonal(noise.Pi0)[top.weight_slice] == 0.1)
    uke = build_runner("UKE", "nnsse_uke", {}, ctx())
    assert uke.step_fn.keywords["params"] == UkeParams()


@pytest.mark.parametrize("config", ["table1.ini", "stack_comparison.ini"])
def test_shipped_config_sections_build(config):
    cfg = load_config(CONFIGS / config)
    for spec in cfg.estimators:
        runner = build_runner(spec.name, spec.kind, spec.params,
                              RunContext(cfg.horizon, 0.005, cfg.seeds[0], 2.0 * np.pi))
        assert runner.name == spec.name


def test_mlp_input_width_must_match_its_first_width():
    with pytest.raises(ConfigError, match="input_width"):
        build_runner("X", "nnsse_uke", {"network": "5-5-1", "input_width": "10"}, ctx())
    for params in ({"network": "5-5-1"}, {"network": "5-5-1", "input_width": "5"}):
        runner = build_runner("X", "nnsse_uke", params, ctx())
        assert runner.step_fn.args[0].input_width == 5
    ws = build_runner("X", "nnsse_eke", {}, ctx())
    assert ws.step_fn.args[0].input_width == 25


@pytest.mark.parametrize("kind, key, value", [
    ("uam_lke", "q", "abc"),
    ("uam_lke", "order", "3.5"),
    ("nnsse_pe", "particles", "many"),
])
def test_unconvertible_value_is_a_config_error(kind, key, value, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        build_runner("X", kind, {key: value}, ctx())
    assert str(err.value).startswith(f"estimator 'X': {key} = {value!r} is not")
    path = tmp_path / "bad.ini"
    path.write_text(f"[trajectory]\nsteps = 200\n[run]\nseeds = 1\n"
                    f"[estimator:X]\nkind = {kind}\n{key} = {value}\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    assert "config error: estimator 'X'" in capsys.readouterr().err


@pytest.mark.parametrize("kind, line, message", [
    ("nnsse_uke", "alpha = 0", "n + lambda = alpha^2 (n + kappa) must be positive"),
    ("uam_uke", "alpha = 0", "n + lambda = alpha^2 (n + kappa) must be positive"),
    ("nnsse_pe", "particles = 1", "particles must be >= 2"),
    ("nnsse_pe", "particles = 0", "particles must be >= 2"),
    ("uam_lke", "order = 5", "order must be in 1..4"),
    ("nnsse_uke", "input_width = 0", "layer widths must be positive"),
    ("nnsse_uke", "network = 5-0-1", "layer widths must be positive"),
    ("nnsse_eke", "r = 0", "R must be finite and > 0"),
    ("sine_lke", "omega = -1", "omega must be > 0"),
    ("uam_lke", "q = nan", "Q must be finite"),
    ("uam_lke", "q = -1e9", "Q must have a nonnegative diagonal"),
    ("e4ptrw", "window = 4", "e4ptrw window must be >= 5"),
    ("nnsse_uke", "activation = tanh", "weighted_sum network has no hidden activation"),
    ("nnsse_eke", "network = 25-1\nactivation = tanh", "25-1 network has no hidden activation"),
    ("nnsse_uke", "network = 5-5-1\ninit_scale = inf", "init_scale must be finite and >= 0"),
    ("nnsse_eke", "network = 5-5-1\ninit_scale = nan", "init_scale must be finite and >= 0"),
    ("nnsse_pe", "network = 5-5-1\ninit_scale = inf", "init_scale must be finite and >= 0"),
    ("nnsse_uke", "network = 5-5-1\ninit_scale = -1", "init_scale must be finite and >= 0"),
    ("sine_lke", "omega = inf", "omega must be > 0 and finite"),
    ("nnsse_uke", "alpha = inf", "alpha must be finite"),
    ("uam_uke", "alpha = inf", "alpha must be finite"),
    ("nnsse_uke", "beta = inf", "beta must be finite"),
    ("uam_uke", "beta = inf", "beta must be finite"),
    ("uam_uke", "kappa = inf", "kappa must be finite"),
])
def test_value_the_builder_refuses_is_a_config_error(kind, line, message, tmp_path,
                                                      capsys):
    path = tmp_path / "bad.ini"
    path.write_text(f"[trajectory]\nsteps = 200\n[run]\nseeds = 1\n"
                    f"[estimator:X]\nkind = {kind}\n{line}\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: estimator 'X': {message}")


@pytest.mark.parametrize("kind", ["nnsse_uke", "nnsse_pe"])
def test_initial_weights_follow_the_network_spelling(kind):
    # weighted_sum and 25-1 are the same network; only the spelling picks the
    # newest-position selector over the uniform draw from the estimator's
    # stream.  The particle cloud is drawn around that mean, from the same
    # stream, at the first measurement.
    positions = np.full(Topology.weighted_sum(25, horizon_a=3).position_count, 2.5)

    def assert_first_state(runner, mean, rng):
        state = runner.init_fn(2.5)
        if kind == "nnsse_pe":
            _, noise = runner.step_fn.args
            spread = np.sqrt(np.diagonal(noise.Pi0))
            cloud = mean + rng.standard_normal((1000, mean.size)) * spread
            assert state.particles.tobytes() == cloud.tobytes()
        else:
            assert state.mean.tobytes() == mean.tobytes()

    selector = np.zeros(25)
    selector[0] = 1.0
    for spelling in ("weighted_sum", "WS"):
        runner = build_runner("X", kind, {"network": spelling}, ctx())
        assert_first_state(runner, np.concatenate([positions, selector]), estimator_rng(1, "X"))
    runner = build_runner("X", kind, {"network": "25-1", "init_scale": "0.3"}, ctx())
    rng = estimator_rng(1, "X")
    draw = rng.uniform(-0.3, 0.3, 25)
    assert_first_state(runner, np.concatenate([positions, draw]), rng)


# ---------------------------------------------------------------------------
# steady-state linear runners

T = 0.005
OMEGA = 2.0 * np.pi

LINEAR_RUNNERS = [
    *(("uam_lke", {"order": str(k)}, UamModel(k, T)) for k in (1, 2, 3, 4)),
    ("sine_lke", {}, SineModel(OMEGA, T)),
    ("stack", {"stack": "E2P", "mode": "lke"}, stack_transition(StackKind.E2P)),
    ("stack", {"stack": "E4P", "mode": "lke"}, stack_transition(StackKind.E4P)),
]


def _noisy_sine(steps=2000, seed=11):
    return gen_sine(10.0, 1.0, 1.0 / T, steps, 1.0, seed).measurement


@pytest.mark.parametrize("kind, params, model", LINEAR_RUNNERS,
                         ids=["uam1", "uam2", "uam3", "uam4", "sine", "E2P", "E4P"])
def test_linear_runner_matches_plain_lke_step_bitwise(kind, params, model):
    # 2000 steps pass the bitwise fixed point of every filter here but the
    # sine model's, whose covariance does not settle.
    runner = build_runner("X", kind, params, RunContext(3, T, 1, OMEGA))
    z = _noisy_sine()
    F, noise = runner.step_fn.F, runner.step_fn.noise
    forecast = (model.forecaster(3) if isinstance(model, SineModel)
                else lambda state: multi_step_predict(model, state, 3))
    belief = runner.init_fn(z[0])
    want, got = [], []
    for i in range(z.size):
        if i:
            belief, _ = lke_step(F, noise, belief, z[i])
        want.append((forecast(belief.mean), belief.cov))
        got.append((runner.step(z[i]), runner.state.cov))
    assert np.array([f for f, _ in got]).tobytes() == np.array([f for f, _ in want]).tobytes()
    assert np.array([c for _, c in got]).tobytes() == np.array([c for _, c in want]).tobytes()
    assert (runner.step_fn.cov is None) == (kind == "sine_lke")


@pytest.mark.parametrize("order, most", [(1, 10), (3, 399)])
def test_uam_lke_stops_calling_lke_step_at_the_fixed_point(order, most, monkeypatch):
    calls = []
    plain = nnsse.estimators.lke_step
    monkeypatch.setattr(nnsse.estimators, "lke_step",
                        lambda *args: calls.append(1) or plain(*args))
    runner = build_runner("X", "uam_lke", {"order": str(order)}, RunContext(3, T, 1))
    for z in _noisy_sine():
        runner.step(z)
    assert 1 <= len(calls) <= most


# Reference closed forms, evaluated term by term on numpy float64 scalars.
def _scalar_uam_forecast(state, n, T):
    return float(sum(state[j] * (n * T) ** j / math.factorial(j) for j in range(state.size)))


def _scalar_sine_forecast(state, n, omega, T):
    angle = n * omega * T
    return float(np.cos(angle) * state[0] + np.sin(angle) * state[1])


def _random_states(rng, k):
    states = [rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, k) for _ in range(60)]
    return states + [np.zeros(k), -np.zeros(k), np.full(k, 1e300)]


@pytest.mark.parametrize("horizon", range(1, 8))
def test_bound_forecasts_match_the_closed_forms_bitwise(horizon):
    rng = np.random.default_rng(horizon)
    ctx = RunContext(horizon, T, 1, OMEGA)
    for order in (1, 2, 3, 4):
        runner = build_runner("X", "uam_lke", {"order": str(order)}, ctx)
        for state in _random_states(rng, order):
            got = runner.forecast_fn(GaussianBelief(state, np.eye(order)))
            assert got.hex() == multi_step_predict(UamModel(order, T), state, horizon).hex()
            assert got.hex() == _scalar_uam_forecast(state, horizon, T).hex()
    for omega in (OMEGA, 0.7):
        runner = build_runner("X", "sine_lke", {"omega": str(omega)}, ctx)
        for state in _random_states(rng, 2):
            got = runner.forecast_fn(GaussianBelief(state, np.eye(2)))
            assert got.hex() == _scalar_sine_forecast(state, horizon, omega, T).hex()


# ---------------------------------------------------------------------------
# the (state, innovation) step contract

FILTER_KINDS = [
    ("uam_lke", {}),
    ("uam_uke", {}),
    ("sine_lke", {}),
    ("stack", {"stack": "E4P", "mode": "lke"}),
    ("nnsse_uke", {"network": "5-5-1"}),
    ("nnsse_eke", {"network": "5-5-1"}),
    ("nnsse_pe", {"particles": "200"}),
]


def _predicted_observation(kind, runner, state):
    """What each kind predicts x[0] to be before it reads z: row 0 of F on the
    mean, the model's full transition at the mean (extended), averaged over
    the 2n sigma points of the unit spread (unscented, whose centre point
    weighs 0), or averaged over the propagated cloud with its prior weights
    (particle; the step's noise is drawn from a copy of its stream)."""
    F = {"uam_lke": UamModel(3, T).F, "uam_uke": UamModel(3, T).F,
         "sine_lke": SineModel(OMEGA, T).F, "stack": stack_transition(StackKind.E4P).F}
    if kind in F:
        return float(F[kind][0] @ state.mean)
    top, noise = runner.step_fn.args
    if kind == "nnsse_eke":
        return float(top.transition_batch(state.mean[None])[0, 0])
    if kind == "nnsse_uke":
        L = np.linalg.cholesky(state.mean.size * state.cov)
        points = np.concatenate([state.mean + L.T, state.mean - L.T])
        return float(top.transition_batch(points)[:, 0].mean())
    rng = copy.deepcopy(runner.step_fn.keywords["rng"])
    cloud = top.transition_batch(state.particles)
    cloud += rng.standard_normal(cloud.shape) * np.sqrt(np.diagonal(noise.Q))
    return float(state.weights @ cloud[:, 0])


@pytest.mark.parametrize("kind, params", FILTER_KINDS, ids=[k for k, _ in FILTER_KINDS])
def test_a_step_leaves_the_state_it_reads_unchanged(kind, params):
    # The first belief's covariance is the noise spec's P0 itself, not a copy,
    # so no step may write into the arrays of the state it is handed.
    runner = build_runner("X", kind, params, RunContext(3, T, 1, OMEGA))
    z = _noisy_sine(2).tolist()
    runner.step(z[0])
    first = runner.state
    arrays = [a for a in first if a is not None]  # a prior belief has no gain
    before = [a.tobytes() for a in arrays]
    runner.step(z[1])
    assert runner.state is not first
    assert [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("kind, params", FILTER_KINDS, ids=[k for k, _ in FILTER_KINDS])
def test_every_step_returns_z_minus_its_predicted_observation(kind, params):
    runner = build_runner("X", kind, params, RunContext(3, T, 1, OMEGA))
    z = _noisy_sine(60).tolist()
    runner.step(z[0])
    for value in z[1:]:
        expected = value - _predicted_observation(kind, runner, runner.state)
        runner.state, innovation = runner.step_fn(runner.state, value)
        assert innovation == pytest.approx(expected, rel=0, abs=1e-9)


@pytest.mark.parametrize("kind, params", [*((kind, {}) for kind in ESTIMATOR_KINDS),
                                          ("stack", {"mode": "lke"})])
def test_every_kind_builds_a_filter_runner(kind, params):
    assert type(build_runner("X", kind, params, ctx())) is FilterRunner


OPEN_LOOP_KINDS = [("stack", {"stack": "E2P"}), ("stack", {"stack": "E4P"}),
                   ("e4ptrw", {"window": "7"})]


@pytest.mark.parametrize("kind, params", OPEN_LOOP_KINDS, ids=["E2P", "E4P", "E4PTRW"])
def test_open_loop_innovation_is_z_minus_the_previous_windows_prediction(kind, params):
    # Until k measurements have arrived the innovation is z minus the last
    # one, then z minus row 0 of F on the window z has not yet entered; for
    # E4PTRW that F is the one in force before z arrived.
    z = _noisy_sine(200)
    z[80] = np.nan  # the refit drops its rows, then falls back to the published row
    stack = stack_transition(StackKind[params.get("stack", "E4PTRW")])
    F, k = stack.F.copy(), stack.k
    runner = build_runner("X", kind, params, RunContext(3, T, 1, OMEGA))
    rows, targets, got, want = [], [], [], []
    for i, value in enumerate(z.tolist()):
        if i == 0:
            runner.step(value)
        else:
            runner.state, innovation = runner.step_fn(runner.state, value)
            got.append(innovation)
            want.append(z[i] - (z[i - 1] if i < k else (F @ z[i - k:i][::-1].copy())[0]))
        if kind == "e4ptrw" and i >= 4:
            rows, targets = (rows + [z[i - 4:i][::-1]])[-7:], (targets + [value])[-7:]
            if len(rows) == 7:
                F[0] = e4ptrw_refit(np.array(rows), np.array(targets))
    assert np.array(got).tobytes() == np.array(want).tobytes()
