"""Tests for runner construction from the estimator key table."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from nnsse.cli import EXIT_CONFIG, main
from nnsse.config import load_config
from nnsse.estimators import UkeParams
from nnsse.model import Topology
from nnsse.runners import ConfigError, RunContext, build_runner

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
    assert np.all(np.diagonal(pe.noise.Q)[top.position_slice] == 1e-3)
    assert np.all(np.diagonal(pe.noise.Pi0)[top.weight_slice] == 1e-4)
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
        assert runner.step_fn.args[0].topology.input_width == 5
    ws = build_runner("X", "nnsse_eke", {}, ctx())
    assert ws.step_fn.args[0].topology.input_width == 25


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
