"""Tests for the experiment harness: error accounting, isolation, determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from nnsse.baselines import (
    STACK_COEFFS,
    StackKind,
    StackModel,
    e4ptrw_refit,
    multi_step_predict,
)
from nnsse.bench import (
    CovarianceAudit,
    EstimatorSpec,
    ExperimentConfig,
    Metric,
    accumulated_error,
    run_experiment,
    run_single_seed,
)
from nnsse.cli import EXIT_CONFIG, EXIT_ESTIMATOR_FAILURE, main
from nnsse.estimators import EstimatorError, GaussianBelief, SteadyStateLke, lke_step
from nnsse.model import Topology
from nnsse.runners import ConfigError, RunContext, Runner, build_runner
from nnsse.signals import Trajectory, gen_sine, save_trajectory


def sine_config(estimators, steps=1500, windows=((0, 1500),), seeds=(1,),
                noise_var=1.0, **kw):
    return ExperimentConfig(
        trajectory={"source": "sine", "amplitude": 10.0, "period_s": 1.0,
                    "rate_hz": 200.0, "steps": steps, "noise_var": noise_var},
        horizon=3,
        estimators=estimators,
        windows=[tuple(w) for w in windows],
        seeds=list(seeds),
        **kw,
    )


# ---------------------------------------------------------------------------
# accumulated_error


def test_accumulated_error_zero_for_equal_series():
    x = np.arange(50.0)
    assert accumulated_error(x, x, (0, 50)) == 0.0


def test_accumulated_error_unit_offset():
    ref = np.zeros(100)
    pred = np.ones(100)
    assert accumulated_error(pred, ref, (0, 100), Metric.ABS_SUM) == 100.0


def test_accumulated_error_sq_equals_abs_for_unit_errors():
    ref = np.zeros(60)
    pred = np.array([1.0, 0.0] * 30)
    a = accumulated_error(pred, ref, (0, 60), Metric.ABS_SUM)
    s = accumulated_error(pred, ref, (0, 60), Metric.SQ_SUM)
    assert a == s == 30.0


def test_accumulated_error_empty_window_raises():
    with pytest.raises(ValueError):
        accumulated_error(np.zeros(5), np.zeros(5), (3, 3))


# ---------------------------------------------------------------------------
# run_experiment basics


def test_exact_sine_model_beats_kinematic_baseline():
    cfg = sine_config(
        [EstimatorSpec("UAM-LKE", "uam_lke", {}),
         EstimatorSpec("Accurate-Sin", "sine_lke", {})],
        steps=2000, windows=((0, 2000), (1000, 2000)), noise_var=0.0)
    run = run_single_seed(cfg, 1)
    for label in ("0-2000", "1000-2000"):
        assert (run.results["Accurate-Sin"].window_errors[label]
                < run.results["UAM-LKE"].window_errors[label])


def test_constant_trajectory_steady_error_vanishes(tmp_path):
    # constant series are reproduced exactly by the estimators whose model
    # class contains them (the regressed fixed row sums to 1.0001 and the
    # rotation model has no constant solutions, so both are excluded here).
    # NNSSE-UKE is excluded too: its unscented mean of the bilinear w.x_in
    # row adds tr C_{w,x_in}, which its first update makes nonzero, so it
    # runs a ~3000-step transient and then settles with the plug-in forecast
    # offset by -tr C_{w,x_in} (checked in the test below).
    const = np.full(800, 5.0)
    path = tmp_path / "const.csv"
    save_trajectory(path, Trajectory(0.005, const, const))
    cfg = ExperimentConfig(
        trajectory={"source": "file", "path": str(path)},
        horizon=3,
        estimators=[
            EstimatorSpec("UAM-LKE", "uam_lke", {}),
            EstimatorSpec("NNSSE-EKE", "nnsse_eke", {}),
            EstimatorSpec("E2P", "stack", {"stack": "E2P"}),
            EstimatorSpec("E3P", "stack", {"stack": "E3P"}),
            EstimatorSpec("E4P", "stack", {"stack": "E4P"}),
            EstimatorSpec("E4PVW", "stack", {"stack": "E4PVW"}),
            EstimatorSpec("E4PTRW", "e4ptrw", {}),
        ],
        windows=[(700, 800)],
        seeds=[1])
    run = run_single_seed(cfg, 1)
    for name, res in run.results.items():
        assert res.failure is None, name
        steady = res.window_errors["700-800"] / 100
        assert steady <= 1e-6, (name, steady)


def test_uke_constant_trajectory_settles_to_cross_covariance_offset():
    # The unscented mean of the transition row is w.x_in + tr C_{w,x_in}.
    # At the fixed point the position block holds the constant and the
    # predicted row equals it, so the plug-in forecast w.x misses it by
    # exactly -tr C_{w,x_in} of the posterior.
    runner = build_runner("NNSSE-UKE", "nnsse_uke", {}, RunContext(3, 0.005, 1))
    top = Topology.weighted_sum(25, horizon_a=3)
    for _ in range(6000):
        forecast = runner.step(5.0)
    mean, cov = runner.state.mean, runner.state.cov
    np.testing.assert_allclose(mean[top.position_slice], 5.0, rtol=0, atol=1e-6)
    cross = np.trace(cov[top.weight_slice, top.network_input_slice])
    assert forecast - 5.0 == pytest.approx(-cross, rel=0, abs=1e-7)


def test_uke_equals_lke_on_the_linear_kinematic_model():
    # The unscented transform is exact for a linear transition, so the
    # kinematic UKE must reproduce the kinematic LKE through the harness.
    cfg = sine_config(
        [EstimatorSpec("UAM-LKE", "uam_lke", {}),
         EstimatorSpec("UAM-UKE", "uam_uke", {})],
        steps=2000, windows=((0, 2000), (1000, 2000)))
    run = run_single_seed(cfg, 1)
    lke, uke = run.results["UAM-LKE"], run.results["UAM-UKE"]
    assert lke.failure is None and uke.failure is None
    for label, err in lke.window_errors.items():
        assert uke.window_errors[label] == pytest.approx(err, rel=1e-9, abs=0)


def test_table1_roster_has_ten_rows():
    from nnsse.config import load_config
    cfg = load_config("configs/table1.ini")
    assert [e.name for e in cfg.estimators] == [
        "UAM-LKE", "UAM-UKE", "Accurate-Sin", "NNSSE-UKE", "NNSSE-PE",
        "NNSSE-EKE", "NNSSE-5-5-1", "NNSSE-10-10-1", "NNSSE-Tanh",
        "NNSSE-5-5-5-1"]


def test_warmup_auto_resolves_to_largest_input_window():
    cfg = sine_config([EstimatorSpec("NNSSE-UKE", "nnsse_uke",
                                     {"input_width": 25})])
    run = run_single_seed(cfg, 1)
    assert run.warmup == 25
    cfg2 = sine_config([EstimatorSpec("E2P", "stack", {"stack": "E2P"})],
                       warmup=7)
    assert run_single_seed(cfg2, 1).warmup == 7


def test_window_entirely_inside_warmup_rejected():
    cfg = sine_config([EstimatorSpec("NNSSE-UKE", "nnsse_uke", {})],
                      windows=((0, 20),))
    with pytest.raises(ConfigError):
        run_single_seed(cfg, 1)


def test_predictions_align_to_target_steps():
    cfg = sine_config([EstimatorSpec("E2P", "stack", {"stack": "E2P"})],
                      steps=400, windows=((0, 400),))
    run = run_single_seed(cfg, 1)
    res = run.results["E2P"]
    aligned = run.aligned_predictions("E2P")
    assert np.isnan(aligned[:3]).all()
    np.testing.assert_array_equal(aligned[3:], res.predictions[:-3])
    # deterministic open-loop stack: recompute one aligned error by hand
    z = run.trajectory.measurement
    i = 100
    state = np.array([z[i], z[i - 1]])
    F = np.array([[2.0, -1.0], [1.0, 0.0]])
    expected = float((F @ F @ (F @ state))[0])
    assert aligned[i + 3] == pytest.approx(expected)
    assert res.errors[i + 3] == pytest.approx(expected - run.trajectory.truth[i + 3])


def test_failing_estimator_is_isolated_and_recorded():
    fail_spec = EstimatorSpec("BAD-PE", "nnsse_pe", {"r": 1e-250})
    good = EstimatorSpec("NNSSE-EKE", "nnsse_eke", {})
    cfg_pair = sine_config([good, fail_spec], steps=600, windows=((0, 600),))
    cfg_solo = sine_config([good], steps=600, windows=((0, 600),))
    run_pair = run_single_seed(cfg_pair, 1)
    run_solo = run_single_seed(cfg_solo, 1)
    assert run_pair.results["BAD-PE"].failure is not None
    assert "likelihood" in run_pair.results["BAD-PE"].failure
    np.testing.assert_array_equal(run_pair.results["NNSSE-EKE"].predictions,
                                  run_solo.results["NNSSE-EKE"].predictions)


def test_runs_are_deterministic_across_calls():
    spec = [EstimatorSpec("NNSSE-PE", "nnsse_pe", {"particles": 200}),
            EstimatorSpec("NNSSE-Tanh", "nnsse_uke",
                          {"network": "5-5-1", "activation": "tanh"})]
    cfg = sine_config(spec, steps=500, windows=((0, 500),))
    a = run_single_seed(cfg, 1)
    b = run_single_seed(cfg, 1)
    for name in ("NNSSE-PE", "NNSSE-Tanh"):
        np.testing.assert_array_equal(a.results[name].predictions,
                                      b.results[name].predictions)


def _recording_pool(base, pools: list):
    """``base`` that records, per pool, its worker count and the jobs it maps."""

    class RecordingPool(base):
        def __init__(self, max_workers, **kw):
            pools.append({"workers": max_workers, "jobs": None})
            super().__init__(max_workers, **kw)

        def map(self, fn, jobs):
            pools[-1]["jobs"] = list(jobs)
            return super().map(fn, pools[-1]["jobs"])

    return RecordingPool


def test_parallel_seed_execution_matches_sequential(tmp_path, capsys, monkeypatch):
    import nnsse.bench
    from concurrent.futures import ProcessPoolExecutor
    from nnsse.config import load_config
    from nnsse.report import write_run_csv

    pools = []
    monkeypatch.setattr(nnsse.bench, "ProcessPoolExecutor",
                        _recording_pool(ProcessPoolExecutor, pools))
    # Three seeds of a roster heavy enough for the pool.  The network rows
    # draw their initial weights, and the PE its first cloud and every
    # step's noise, from the estimator's own stream.
    spec = [EstimatorSpec("E4P", "stack", {"stack": "E4P"}),
            EstimatorSpec("E4PTRW", "e4ptrw", {}),
            EstimatorSpec("UAM-LKE", "uam_lke", {}),
            EstimatorSpec("Sin", "sine_lke", {}),
            EstimatorSpec("NNSSE-UKE", "nnsse_uke", {"network": "5-5-1"}),
            EstimatorSpec("NNSSE-EKE", "nnsse_eke", {"network": "5-5-1"}),
            EstimatorSpec("NNSSE-PE", "nnsse_pe", {"particles": "50"})]
    cfg = sine_config(spec, steps=400, windows=((0, 400), (300, 400)), seeds=(1, 2, 3))
    runs, csvs = {}, {}
    for parallel in (1, 2, 3, 4):
        out = tmp_path / f"seeds{parallel}"
        out.mkdir()
        runs[parallel] = run_experiment(cfg, parallel=parallel,
                                        on_seed=lambda run: write_run_csv(out, run)).seed_runs
        csvs[parallel] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert [pool["workers"] for pool in pools] == [1, 2, 3]
    for pool in pools:
        assert [seed for seed, _ in pool["jobs"]] == sorted(seed for seed, _ in pool["jobs"])
    # Three equal seeds in three shares: LPT gives each seed a share of its
    # own.  In two or four shares, the shares cross seeds: the pool's jobs
    # hold rows of several seeds, and a seed's rows are split over processes.
    whole = list(range(len(spec)))
    assert [(seed, sorted(rows)) for seed, rows in pools[1]["jobs"]] == [(2, whole), (3, whole)]
    for pool in (pools[0], pools[2]):
        pooled = [seed for seed, rows in pool["jobs"] for _ in rows]
        assert len(set(pooled)) > 1 and any(pooled.count(s) < len(spec) for s in pooled)
    assert sorted(csvs[1]) == ["run_seed1.csv", "run_seed2.csv", "run_seed3.csv"]
    for parallel in (2, 3, 4):
        assert csvs[parallel] == csvs[1]
        assert [run.seed for run in runs[parallel]] == [1, 2, 3]
        for rs, rp in zip(runs[1], runs[parallel]):
            assert (rp.order, list(rp.results), rp.warmup) == (rs.order, list(rs.results),
                                                                rs.warmup)
            for name in rs.order:
                a, b = rs.results[name], rp.results[name]
                assert a.failure is None, name
                assert a.predictions.tobytes() == b.predictions.tobytes(), name
                assert a.errors.tobytes() == b.errors.tobytes(), name
                assert (a.window_errors, a.failure) == (b.window_errors, b.failure), name

    # One seed: its roster is split between this process and a worker.  Only
    # NNSSE-UKE's input window (25) sets the warmup, which the other share
    # must score too.  The spike at step 300 stops every row but UAM-P and
    # E2P-LKE, so each share holds a row that fails mid-run and one that
    # keeps its window totals.
    _write_spike(tmp_path / "spike.csv", 600, 300)
    rows = {"NNSSE-UKE": "nnsse_uke", "NNSSE-5-5-1": "nnsse_uke\nnetwork = 5-5-1",
            "NNSSE-EKE": "nnsse_eke\nnetwork = 5-5-1", "UAM-P": "uam_lke\norder = 1",
            "E2P": "stack\nstack = E2P", "E2P-LKE": "stack\nstack = E2P\nmode = lke",
            "E4PTRW": "e4ptrw"}
    config = tmp_path / "one_seed.ini"
    config.write_text(f"[trajectory]\nsource = file\npath = {tmp_path / 'spike.csv'}\n"
                      "[run]\nwindows = 0:300\n" + _roster(rows), encoding="utf-8")
    cfg = load_config(config)
    serial = run_experiment(cfg).seed_runs[0]
    failed = {name for name, res in serial.results.items() if res.failure}
    assert serial.warmup == 25 and failed == set(rows) - {"UAM-P", "E2P-LKE"}
    seen = []
    split = run_experiment(cfg, parallel=2, on_seed=seen.append).seed_runs
    assert len(pools) == 4 and pools[-1]["workers"] == 1 and seen == split
    [(seed, worker_rows)] = pools[-1]["jobs"]
    worker = {list(rows)[i] for i in worker_rows}
    assert seed == 1 and all(failed & names and names - failed
                             for names in (worker, set(rows) - worker))
    assert split[0].order == serial.order == list(rows)
    assert list(split[0].results) == list(rows) and split[0].warmup == 25
    for name in rows:
        rs, rp = serial.results[name], split[0].results[name]
        assert rs.predictions.tobytes() == rp.predictions.tobytes(), name
        assert rs.errors.tobytes() == rp.errors.tobytes(), name
        assert (rs.window_errors, rs.failure) == (rp.window_errors, rp.failure), name
    files = {}
    for parallel in (1, 2):
        code, files[parallel] = _run_files(config, tmp_path / f"out{parallel}", parallel,
                                           capsys)
        assert code == EXIT_ESTIMATOR_FAILURE
    assert files[1] == files[2] and list(files[1]) == ["run_seed1.csv"]
    assert len(pools) == 5


@pytest.mark.parametrize("seeds", [(1,), (1, 2)], ids=["one-seed", "two-seeds"])
def test_a_trajectory_too_short_for_the_warmup_fails_before_any_pool(seeds, monkeypatch):
    import nnsse.bench

    pools = []
    monkeypatch.setattr(nnsse.bench, "ProcessPoolExecutor", _recording_pool(InProcessPool, pools))
    roster = [EstimatorSpec("NNSSE-UKE", "nnsse_uke", {}),
              EstimatorSpec("NNSSE-5-5-1", "nnsse_uke", {"network": "5-5-1"})]
    short = sine_config(roster, steps=27, windows=((0, 27),), seeds=seeds)
    messages = []
    for parallel in (1, 2):
        with pytest.raises(ConfigError) as refused:
            run_experiment(short, parallel=parallel)
        messages.append(str(refused.value))
    assert messages == ["trajectory too short (27 steps) for warmup 25 + horizon 3"] * 2
    assert pools == []


def test_worker_pool_is_capped_at_the_gated_shares(monkeypatch):
    import nnsse.bench

    pools = []
    monkeypatch.setattr(nnsse.bench, "ProcessPoolExecutor", _recording_pool(InProcessPool, pools))
    # Cheap rows, on one seed or several: the plan would save less than a
    # worker costs to start, so no pool starts and this process runs them.
    cheap = [EstimatorSpec("E2P", "stack", {"stack": "E2P"}),
             EstimatorSpec("UAM-P", "uam_lke", {"order": "1"}),
             EstimatorSpec("E4PTRW", "e4ptrw", {})]
    for seeds in ((1,), (1, 2)):
        cfg = sine_config(cheap, steps=400, windows=((0, 400),), seeds=seeds)
        plan = run_experiment(cfg, parallel=8).seed_runs
        assert pools == [] and [run.seed for run in plan] == list(seeds)
        assert all(run.order == list(run.results) == ["E2P", "UAM-P", "E4PTRW"]
                   for run in plan)
    # Heavy rows: k = min(parallel, items) shares over all seeds' rows, and a
    # worker for each share but the lightest, which this process runs.
    heavy = [EstimatorSpec(f"UKE{i}", "nnsse_uke", {}) for i in (1, 2, 3)]
    # Equal costs: ties go to the first share with the least load, in item
    # order, and the lightest share is the first of equal ones.
    for seeds, parallel, jobs in [
            ((1,), 8, [(1, [1]), (1, [2])]),
            ((1,), 2, [(1, [0, 2])]),
            ((1, 2), 8, [(1, [1]), (1, [2]), (2, [0]), (2, [1]), (2, [2])]),
            ((1, 2), 2, [(1, [1]), (2, [0, 2])])]:
        cfg = sine_config(heavy, steps=400, windows=((0, 400),), seeds=seeds)
        seen = []
        plan = run_experiment(cfg, parallel=parallel, on_seed=seen.append).seed_runs
        assert pools[-1] == {"workers": min(parallel, 3 * len(seeds)) - 1, "jobs": jobs}
        assert seen == plan
        for rp, rs in zip(plan, run_experiment(cfg).seed_runs, strict=True):
            assert rp.seed == rs.seed and rp.order == list(rp.results) == ["UKE1", "UKE2", "UKE3"]
            for name in rp.order:
                assert (rp.results[name].predictions.tobytes()
                        == rs.results[name].predictions.tobytes()), name


def test_rows_are_packed_longest_first_into_shares_lightest_first():
    from nnsse.bench import _pack_longest_first

    # 7 -> A, 5 -> B, 4 -> B, the first 3 -> A, the second 3 -> B, 1 -> A
    assert _pack_longest_first([3.0, 7.0, 1.0, 5.0, 3.0, 4.0], 2) == [
        (11.0, [1, 0, 2]), (12.0, [3, 5, 4])]
    assert _pack_longest_first([2.0, 2.0], 3) == [(0.0, []), (2.0, [0]), (2.0, [1])]


class InProcessPool:
    """Stand-in pool that maps in this process."""

    def __init__(self, max_workers, mp_context=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


LINEAR_ROSTER = [EstimatorSpec(f"UAM{k}", "uam_lke", {"order": str(k)}) for k in (1, 2, 3, 4)] + [
    EstimatorSpec("Sin", "sine_lke", {}),
    EstimatorSpec("E4P-LKE", "stack", {"stack": "E4P", "mode": "lke"})]


def test_seeds_of_a_run_share_linear_schedules_bitwise(monkeypatch):
    plain_call = SteadyStateLke.__call__
    steps = []

    def recording(self, belief, z):
        posterior, innovation = plain_call(self, belief, z)
        steps.append((posterior.mean.tobytes(), posterior.cov.tobytes(),
                       float(innovation).hex()))
        return posterior, innovation

    monkeypatch.setattr(SteadyStateLke, "__call__", recording)
    cfg = sine_config(LINEAR_ROSTER, steps=600, windows=((0, 600),), seeds=(1, 2, 3))
    shared = run_experiment(cfg).seed_runs
    shared_steps, steps[:] = steps[:], []
    alone = [run_single_seed(cfg, seed) for seed in cfg.seeds]
    assert len(shared_steps) == 3 * 6 * 599 and shared_steps == steps
    for a, b in zip(shared, alone):
        for spec in LINEAR_ROSTER:
            assert (a.results[spec.name].predictions.tobytes()
                    == b.results[spec.name].predictions.tobytes())


def _calls_until_fixed_point(runner, z) -> int:
    """`lke_step` calls of a private schedule: up to the step whose posterior
    covariance repeats its prior, or every step."""
    belief = runner.init_fn(z[0])
    for i in range(1, z.size):
        posterior, _ = lke_step(runner.step_fn.F, runner.step_fn.noise, belief, z[i])
        if posterior.cov.tobytes() == belief.cov.tobytes():
            return i
        belief = posterior
    return z.size - 1


@pytest.mark.parametrize("pool", [None, InProcessPool], ids=["serial", "in-process-pool"])
def test_only_the_first_seed_of_each_run_calls_lke_step(pool, monkeypatch):
    import nnsse.bench
    import nnsse.estimators

    cfg = sine_config(LINEAR_ROSTER, steps=600, windows=((0, 600),), seeds=(1, 2, 3))
    traj = cfg.make_trajectory(1)
    ctx = RunContext(cfg.horizon, traj.sample_period, 1, 2.0 * np.pi)
    today = sum(_calls_until_fixed_point(build_runner(s.name, s.kind, s.params, ctx),
                                         traj.measurement) for s in LINEAR_ROSTER)
    calls, priors, seed = {}, [], [None]
    plain_step, plain_seed = nnsse.estimators.lke_step, nnsse.bench.run_single_seed
    plain_prior = nnsse.estimators._lke_prior_cov

    def counting_step(*args):
        calls[seed[0]] = calls.get(seed[0], 0) + 1
        return plain_step(*args)

    def counting_prior(*args):
        priors.append(1)
        return plain_prior(*args)

    def seed_run(config, s, *args):
        seed[0] = s
        return plain_seed(config, s, *args)

    monkeypatch.setattr(nnsse.estimators, "lke_step", counting_step)
    monkeypatch.setattr(nnsse.estimators, "_lke_prior_cov", counting_prior)
    monkeypatch.setattr(nnsse.bench, "run_single_seed", seed_run)
    pools = []
    if pool is not None:
        monkeypatch.setattr(nnsse.bench, "ProcessPoolExecutor", _recording_pool(pool, pools))
        monkeypatch.setattr(nnsse.bench, "_POOL_START_S", 0.0)
    for _ in range(2):  # a second run recomputes: no schedule outlives its run
        calls.clear()
        priors.clear()
        run_experiment(cfg, parallel=1 if pool is None else 2)
        # Later seeds reuse the gain lke_step formed: no prior is formed again.
        # In the pool's shares, which cross seeds, a row's first job may be a
        # later seed's; every job here shares one store all the same.
        assert (calls == {1: today} if pool is None else sum(calls.values()) == today)
        assert len(priors) == today
    assert today > 599  # the sine filter never freezes
    assert len(pools) == (0 if pool is None else 2) and all(p["jobs"] for p in pools)


def test_one_seed_marks_only_start_and_fixed_point_read_only():
    schedules: dict = {}
    cfg = sine_config(LINEAR_ROSTER, steps=600, windows=((0, 600),))
    run_single_seed(cfg, 1, lke_schedules=schedules)
    assert len(schedules) == len(LINEAR_ROSTER)
    frozen = 0
    for schedule in schedules.values():
        read_only = [k for k, cov in enumerate(schedule.covs) if not cov.flags.writeable]
        last = len(schedule.covs) - 1
        assert set(read_only) <= {0, last}
        assert read_only == [k for k, gain in enumerate(schedule.gains)
                             if gain is not None and not gain.flags.writeable]
        if schedule.complete:
            frozen += 1
            assert last in read_only
        else:
            assert last not in read_only
    assert 0 < frozen < len(LINEAR_ROSTER)  # the sine filter never freezes


def test_every_entry_handed_to_a_second_seed_is_read_only(monkeypatch):
    import nnsse.bench

    plain_call, plain_seed = SteadyStateLke.__call__, nnsse.bench.run_single_seed
    seed, handed = [None], []

    def recording(self, belief, z):
        posterior, innovation = plain_call(self, belief, z)
        if seed[0] == 2:
            handed.append(posterior.cov.flags.writeable or posterior.gain.flags.writeable)
        return posterior, innovation

    def seed_run(config, s, *args):
        seed[0] = s
        return plain_seed(config, s, *args)

    monkeypatch.setattr(SteadyStateLke, "__call__", recording)
    monkeypatch.setattr(nnsse.bench, "run_single_seed", seed_run)
    run_experiment(sine_config(LINEAR_ROSTER, steps=600, windows=((0, 600),), seeds=(1, 2)))
    assert len(handed) == len(LINEAR_ROSTER) * 599 and not any(handed)


@pytest.mark.parametrize("pool", [None, InProcessPool], ids=["serial", "in-process-pool"])
def test_schedule_store_is_empty_after_every_run(pool, monkeypatch):
    import nnsse.bench

    plain_seed = nnsse.bench.run_single_seed
    filled = []

    def seed_run(config, s, audit, schedules, rows=None, setup=None):
        assert schedules is nnsse.bench._schedules
        if not filled:
            assert schedules == {}  # emptied before the first seed
        run = plain_seed(config, s, audit, schedules, rows, setup)
        filled.append(len(schedules))
        if s == fail_at:
            raise RuntimeError(f"seed {s} failed")
        return run

    monkeypatch.setattr(nnsse.bench, "run_single_seed", seed_run)
    pools = []
    if pool is not None:
        monkeypatch.setattr(nnsse.bench, "ProcessPoolExecutor", _recording_pool(pool, pools))
        monkeypatch.setattr(nnsse.bench, "_POOL_START_S", 0.0)
    parallel = 1 if pool is None else 2
    cfg = sine_config(LINEAR_ROSTER[:2], steps=200, windows=((0, 200),), seeds=(1, 2))
    for fail_at in (None, 2):
        nnsse.bench._schedules["stale"] = object()
        filled.clear()
        if fail_at is None:
            assert len(run_experiment(cfg, parallel=parallel).seed_runs) == 2
        else:
            with pytest.raises(RuntimeError, match="seed 2 failed"):
                run_experiment(cfg, parallel=parallel)
        # The pool's plan runs jobs of one row: this process's share is the
        # first row of seeds 1 and 2, where seed 2 fails, the pool's the second.
        assert filled == ([2, 2] if pool is None
                          else [1, 1, 2, 2] if fail_at is None else [1, 1])
        assert nnsse.bench._schedules == {}
    assert len(pools) == (0 if pool is None else 2)


def test_import_leaves_the_process_pool_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, nnsse.bench\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "assert nnsse.bench.ProcessPoolExecutor.__module__ == 'concurrent.futures.process'\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_pool_job_imports_no_module():
    """Pool workers inherit every module the set-up of the seeds loaded, so
    a job imports none.  A fresh interpreter: this one has loaded them all."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "import nnsse.bench as bench\n"
        "plain = bench._seed_worker\n"
        "def recording(job):\n"
        "    before = set(sys.modules)\n"
        "    run = plain(job)\n"
        "    run.imported = sorted(set(sys.modules) - before)\n"
        "    return run\n"
        "bench._seed_worker = recording\n"
        "rows = [bench.EstimatorSpec('UKE', 'nnsse_uke', {'network': '5-5-1'}),\n"
        "        bench.EstimatorSpec('P', 'uam_lke', {'order': '1'})]\n"
        "config = bench.ExperimentConfig({'steps': 600}, rows, seeds=[1, 2])\n"
        "runs = bench.run_experiment(config, parallel=2).seed_runs\n"
        "imported = [run.imported for run in runs if hasattr(run, 'imported')]\n"
        "assert imported, 'no pool job ran'\n"
        "assert not any(imported), imported\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_parallel_without_fork_is_a_config_error_before_any_set_up(monkeypatch):
    import nnsse.bench

    set_up = []
    monkeypatch.setattr(nnsse.bench, "_seed_setup", lambda *args: set_up.append(args))
    monkeypatch.delattr(nnsse.bench.os, "fork")
    cfg = sine_config([EstimatorSpec("E2P", "stack", {"stack": "E2P"})], steps=200,
                      windows=((0, 200),), seeds=(1, 2))
    with pytest.raises(ConfigError, match="needs os.fork"):
        run_experiment(cfg, parallel=2)
    assert set_up == []


@pytest.mark.parametrize("parallel", [0, -2])
def test_parallel_below_one_is_a_config_error(parallel, tmp_path):
    spec = [EstimatorSpec("E2P", "stack", {"stack": "E2P"})]
    with pytest.raises(ConfigError, match="parallel"):
        run_experiment(sine_config(spec, steps=200), parallel=parallel)
    path = tmp_path / "run.ini"
    path.write_text("[trajectory]\nsteps = 200\n[run]\nseeds = 1 2\n"
                    "[estimator:E2P]\nkind = stack\nstack = E2P\n", encoding="utf-8")
    argv = ["run", "--config", str(path), "--out-dir", str(tmp_path / "out"),
            "--parallel", str(parallel)]
    assert main(argv) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_duplicate_seeds_rejected():
    spec = [EstimatorSpec("A", "uam_lke", {})]
    with pytest.raises(ConfigError, match="unique"):
        sine_config(spec, seeds=(1, 1))
    with pytest.raises(ConfigError, match="unique"):
        sine_config(spec, seeds=(3, 1, 3))


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "nnsse", "run", "--help"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "--parallel" in proc.stdout


@pytest.mark.parametrize("reader, path", [
    ("config", "not_utf8"), ("config", "folder"), ("trajectory", "not_utf8"),
    ("trajectory", "folder"), ("trajectory", "missing"), ("report", "not_utf8"),
    ("report", "missing")])
def test_unreadable_input_is_a_one_line_config_error(reader, path, tmp_path):
    (tmp_path / "not_utf8").write_bytes(b"step,t,measurement\n0,0,1.5\xff\n")
    (tmp_path / "folder").mkdir()
    path = tmp_path / path
    config = tmp_path / "run.ini"
    config.write_text(f"[trajectory]\nsource = file\npath = {path}\n[run]\nwindows = 0:10\n"
                      f"[estimator:X]\nkind = uam_lke\n", encoding="utf-8")
    argv = {"config": ["run", "--config", str(path)],
            "trajectory": ["run", "--config", str(config)],
            "report": ["report", "--report", str(path)]}[reader]
    argv += ["--out-dir", str(tmp_path / "out")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "nnsse", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("{\"horizon\": 3,", "is not valid JSON"),
    ("[]", "is not a report: missing horizon"),
    ('{"horizon": 3, "warmup": 3, "metric": "abs_sum", "windows": [[0, 9]], '
     '"seeds": [1]}', "is not a report: missing results"),
])
def test_report_on_a_malformed_report_json_is_a_config_error(text, message, tmp_path,
                                                              capsys):
    (tmp_path / "report.json").write_text(text, encoding="utf-8")
    assert main(["report", "--report", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


_REPORT_HEAD = ('{"horizon": 3, "warmup": 3, "metric": "abs_sum", "windows": [[0, 9]], '
                '"seeds": [1, 2], "results": ')
_ROW = '{"windows": {}, "seconds": 0.1, "failure": null}'


@pytest.mark.parametrize("results, message", [
    ("[{}]", "missing results[0].seed, results[0].order, results[0].estimators"),
    ('[{"seed": 1, "order": ["A"], "estimators": {"A": {"windows": {}}}}]',
     "missing results[0].estimators['A'].seconds, results[0].estimators['A'].failure"),
    ('[{"seed": 1, "order": ["A"], "estimators": {}}]',
     "missing results[0].estimators['A'].windows, results[0].estimators['A'].seconds, "
     "results[0].estimators['A'].failure"),
    (f'[{{"seed": 1, "order": ["A"], "estimators": {{"A": {_ROW}}}}}, '
     f'{{"seed": 2, "order": ["B"], "estimators": {{"B": {_ROW}}}}}]',
     "missing results[1].estimators['A'].windows, results[1].estimators['A'].seconds, "
     "results[1].estimators['A'].failure"),
])
def test_report_on_incomplete_results_is_a_config_error(results, message, tmp_path,
                                                        capsys):
    (tmp_path / "report.json").write_text(_REPORT_HEAD + results + "}", encoding="utf-8")
    assert main(["report", "--report", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {tmp_path / 'report.json'} is not a report: {message}\n"


def _one_row(row: str, order: str = '["A"]') -> str:
    return f'[{{"seed": 1, "order": {order}, "estimators": {{"A": {row}}}}}]'


@pytest.mark.parametrize("windows, results, message", [
    ("[[0, 9]]", _one_row('{"windows": {}, "seconds": "x", "failure": null}'),
     "results[0].estimators['A'].seconds must be a number"),
    ("[[0, 9]]", _one_row('{"windows": {}, "seconds": 0.1, "failure": 5}'),
     "results[0].estimators['A'].failure must be a string or null"),
    ("[[0, 9]]", _one_row('{"windows": {"0-9": "x"}, "seconds": 0.1, "failure": null}'),
     "results[0].estimators['A'].windows must map window labels to numbers"),
    ("[[0, 9]]", _one_row(_ROW, order='"A"'), "results[0].order must be a list of strings"),
    ("[[0, 9]]", '{"seed": 1}', "results must be a list"),
    ("5", "[]", "windows must be a list of [start, end] number pairs"),
])
def test_report_with_a_wrong_type_is_a_config_error(windows, results, message, tmp_path,
                                                    capsys):
    text = _REPORT_HEAD.replace("[[0, 9]]", windows) + results + "}"
    (tmp_path / "report.json").write_text(text, encoding="utf-8")
    assert main(["report", "--report", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {tmp_path / 'report.json'} is not a report: {message}\n"


def test_run_and_report_refuse_an_out_dir_that_is_a_file(tmp_path, capsys, monkeypatch):
    import nnsse.cli

    path = tmp_path / "run.ini"
    path.write_text("[trajectory]\nsteps = 200\n[run]\nseeds = 1\n"
                    "[estimator:E2P]\nkind = stack\nstack = E2P\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    afile = tmp_path / "afile"
    afile.write_text("keep\n", encoding="utf-8")
    monkeypatch.setattr(nnsse.cli, "run_experiment", None)  # refused before the run
    for out in (afile, afile / "sub"):
        assert main(["run", "--config", str(path), "--out-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: --out-dir {out}: {afile} is not a directory\n"
        for fmt in ("table", "csv"):
            argv = ["report", "--report", str(tmp_path / "out"), "--format", fmt,
                    "--out-dir", str(out)]
            assert main(argv) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"config error: --out-dir {out}: {afile} is not a directory\n"
    assert afile.read_text(encoding="utf-8") == "keep\n"


def test_run_prints_the_table_it_writes(tmp_path, capsys, monkeypatch):
    import nnsse.report

    renders = []
    render = nnsse.report.render_table
    monkeypatch.setattr(nnsse.report, "render_table",
                        lambda data: renders.append(1) or render(data))
    path = tmp_path / "run.ini"
    path.write_text("[trajectory]\nsteps = 200\n[run]\nseeds = 1, 2\n"
                    "[estimator:E2P]\nkind = stack\nstack = E2P\n"
                    "[estimator:UAM-LKE]\nkind = uam_lke\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    table = (tmp_path / "out" / "table.txt").read_bytes()
    printed, _, rest = out.partition("\nwrote ")
    assert printed.encode("utf-8") == table and table
    assert rest.startswith(str(tmp_path / "out"))
    assert renders == [1]


# One row of every estimator kind, both stack modes: name -> its section body.
EVERY_KIND = {"UAM-LKE": "uam_lke", "UAM-UKE": "uam_uke", "Accurate-Sin": "sine_lke",
              "NNSSE-UKE": "nnsse_uke", "NNSSE-EKE": "nnsse_eke",
              "NNSSE-PE": "nnsse_pe\nparticles = 50", "E2P": "stack\nstack = E2P",
              "E2P-LKE": "stack\nstack = E2P\nmode = lke", "E4PTRW": "e4ptrw"}


def _roster(rows: dict) -> str:
    return "".join(f"[estimator:{name}]\nkind = {kind}\n" for name, kind in rows.items())


def _run_files(config, out, parallel, capsys) -> tuple[int, dict[str, bytes]]:
    """`nnsse run`'s exit code and run CSVs; its ``wrote`` lines must name
    report.json, the run CSVs in seed order, summary.csv and table.txt."""
    from nnsse.config import load_config

    code = main(["run", "--config", str(config), "--out-dir", str(out),
                 "--parallel", str(parallel)])
    seeds = load_config(config).seeds
    names = ["report.json", *(f"run_seed{s}.csv" for s in seeds), "summary.csv", "table.txt"]
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")] \
        == [f"wrote {out / name}" for name in names]
    return code, {p.name: p.read_bytes() for p in out.glob("run_seed*.csv")}


def _cellwise_csv(run) -> bytes:
    """Reference of `save_trajectory` for a run CSV, assembled cell by cell:
    a non-finite extra cell is empty."""
    traj, columns = run.trajectory, run.csv_columns()
    T, truth = float(traj.sample_period), traj.truth
    lines = [",".join(["step", "t", "truth", "measurement", *columns])]
    for i, z in enumerate(traj.measurement.tolist()):
        cells = [str(i), format(i * T, ".17g"),
                 "" if truth is None else format(float(truth[i]), ".17g"), format(z, ".17g")]
        cells += [format(float(c[i]), ".17g") if math.isfinite(c[i]) else ""
                  for c in columns.values()]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_run_csvs_are_the_same_bytes_serial_and_parallel(tmp_path, capsys):
    from nnsse.config import load_config

    config = tmp_path / "run.ini"
    config.write_text("[trajectory]\nsteps = 300\n[run]\nseeds = 3 1 2\nwindows = 0:300\n"
                      + _roster(EVERY_KIND), encoding="utf-8")
    files = {}
    for parallel in (1, 2):
        code, files[parallel] = _run_files(config, tmp_path / f"out{parallel}", parallel,
                                           capsys)
        assert code == 0
    for run in run_experiment(load_config(config)).seed_runs:
        save_trajectory(tmp_path / "oracle.csv", run.trajectory, run.csv_columns())
        name = f"run_seed{run.seed}.csv"
        assert files[1][name] == files[2][name] == (tmp_path / "oracle.csv").read_bytes() \
            == _cellwise_csv(run)
    assert sorted(files[1]) == sorted(files[2]) == [f"run_seed{s}.csv" for s in (1, 2, 3)]


def _write_spike(path, steps, at):
    """A recorded noisy sine without truth whose step ``at`` reads 5e307."""
    sine = gen_sine(10.0, 1.0, 200.0, steps, 1.0, seed=1)
    z = sine.measurement.copy()
    z[at] = 5e307
    save_trajectory(path, Trajectory(sine.sample_period, z))


@pytest.mark.parametrize("parallel", [1, 2])
def test_run_csv_of_a_row_failing_mid_run_leaves_its_cells_empty(parallel, tmp_path,
                                                                 capsys):
    from nnsse.config import load_config

    # A spike at step 200 overflows the forecasts of every row but UAM-P:
    # their cells are empty from there on, and the first steps of every
    # row have no forecast or no error yet.  The window ends before the spike.
    _write_spike(tmp_path / "spike.csv", 400, 200)
    rows = {"UAM-P": "uam_lke\norder = 1", "E2P": "stack\nstack = E2P",
            "E4PTRW": "e4ptrw", "NNSSE-EKE": "nnsse_eke"}
    config = tmp_path / "run.ini"
    config.write_text(f"[trajectory]\nsource = file\npath = {tmp_path / 'spike.csv'}\n"
                      f"[run]\nseeds = 1 2\nwindows = 0:200\n" + _roster(rows),
                      encoding="utf-8")
    code, files = _run_files(config, tmp_path / "out", parallel, capsys)
    assert code == EXIT_ESTIMATOR_FAILURE
    report = run_experiment(load_config(config))
    failures = {name: res.failure for name, res in report.seed_runs[0].results.items()}
    assert failures == {"UAM-P": None, **{name: "step 200: non-finite forecast"
                                          for name in ("E2P", "E4PTRW", "NNSSE-EKE")}}
    for run in report.seed_runs:
        assert files[f"run_seed{run.seed}.csv"] == _cellwise_csv(run)


def test_median_of_two_totals_near_the_largest_float_stays_finite(tmp_path):
    # UAM-P follows the spike and keeps finite totals above 9e307 on both
    # seeds of the replay, whose sum overflows.
    _write_spike(tmp_path / "spike.csv", 400, 200)
    config = tmp_path / "run.ini"
    config.write_text(f"[trajectory]\nsource = file\npath = {tmp_path / 'spike.csv'}\n"
                      "[run]\nseeds = 1 2\nwindows = 0:400\n"
                      + _roster({"UAM-P": "uam_lke\norder = 1"}), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "nnsse", "run", "--config", str(config),
                           "--out-dir", str(tmp_path / "out")], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    totals = [entry["estimators"]["UAM-P"]["windows"]["0-400"] for entry in report["results"]]
    assert totals[0] == totals[1] > 9e307 and math.isinf(totals[0] + totals[1])
    table = (tmp_path / "out" / "table.txt").read_text(encoding="utf-8").splitlines()
    median_row = table[table.index("median over seeds 1, 2") + 3]
    assert median_row.split()[1] == f"{totals[0] / 1e4:.4f}"


def test_median_equals_numpy_median_on_ordinary_totals():
    from nnsse.report import _median

    rng = np.random.default_rng(7)
    for count in range(1, 9):
        for _ in range(50):
            values = (rng.standard_normal(count) * 10.0 ** rng.integers(-5, 12)).tolist()
            assert _median(values) == float(np.median(values)), values


@pytest.mark.parametrize("pool", [None, InProcessPool], ids=["serial", "in-process-pool"])
def test_a_run_a_later_seed_stops_leaves_no_report_of_an_earlier_run(pool, tmp_path,
                                                                     monkeypatch, capsys):
    import nnsse.bench

    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text("[trajectory]\nsteps = 200\n[run]\nseeds = 1 2\nwindows = 0:200\n"
                      + _roster({"E2P": "stack\nstack = E2P"}), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(earlier) == ["report.json", "run_seed1.csv", "run_seed2.csv",
                               "summary.csv", "table.txt"]

    plain_seed = nnsse.bench.run_single_seed

    def seed_run(config, s, *args):
        if s == 2:
            raise KeyboardInterrupt
        return plain_seed(config, s, *args)

    monkeypatch.setattr(nnsse.bench, "run_single_seed", seed_run)
    pools = []
    if pool is not None:  # seed 1 runs in this process, seed 2 in the pool
        monkeypatch.setattr(nnsse.bench, "ProcessPoolExecutor", _recording_pool(pool, pools))
        monkeypatch.setattr(nnsse.bench, "_POOL_START_S", 0.0)
    config.write_text(config.read_text(encoding="utf-8").replace("steps = 200", "steps = 250"),
                      encoding="utf-8")
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(config), "--out-dir", str(out),
              "--parallel", "1" if pool is None else "2"])
    assert pools == ([] if pool is None else [{"workers": 1, "jobs": [(2, [0])]}])
    later = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(later) == ["run_seed1.csv", "run_seed2.csv"]
    assert later["run_seed2.csv"] == earlier["run_seed2.csv"]
    assert later["run_seed1.csv"] != earlier["run_seed1.csv"]
    capsys.readouterr()
    assert main(["report", "--report", str(out)]) == EXIT_CONFIG
    assert "report.json" in capsys.readouterr().err


@pytest.mark.parametrize("pool", [None, InProcessPool], ids=["serial", "in-process-pool"])
def test_on_seed_sees_each_seed_once_in_seed_order_as_it_ends(pool, monkeypatch):
    import nnsse.bench

    plain_seed, events = nnsse.bench.run_single_seed, []

    def seed_run(config, s, *args):
        events.append(("run", s))
        return plain_seed(config, s, *args)

    monkeypatch.setattr(nnsse.bench, "run_single_seed", seed_run)
    if pool is not None:  # a lazy map: a pool job runs when its result is asked for
        monkeypatch.setattr(nnsse.bench, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(nnsse.bench, "_POOL_START_S", 0.0)
    cfg = sine_config([EstimatorSpec("E2P", "stack", {"stack": "E2P"})], steps=200,
                      windows=((0, 200),), seeds=(3, 1, 2))
    seen = []

    def on_seed(run):
        seen.append(run)
        events.append(("on", run.seed))

    report = run_experiment(cfg, parallel=1 if pool is None else 2, on_seed=on_seed)
    if pool is None:
        assert events == [(kind, s) for s in (3, 1, 2) for kind in ("run", "on")]
    else:
        # This process runs the lighter share, seed 1, first; seed 1 waits
        # for seed 3, then seeds 3 and 2 come back from the pool.
        assert events == [("run", 1), ("run", 3), ("on", 3), ("on", 1), ("run", 2),
                          ("on", 2)]
    assert len(seen) == 3 and all(a is b for a, b in zip(seen, report.seed_runs))


def test_on_seed_with_a_process_pool_sees_every_seed_in_order(monkeypatch):
    import nnsse.bench
    from concurrent.futures import ProcessPoolExecutor

    pools = []
    monkeypatch.setattr(nnsse.bench, "ProcessPoolExecutor",
                        _recording_pool(ProcessPoolExecutor, pools))
    monkeypatch.setattr(nnsse.bench, "_POOL_START_S", 0.0)
    cfg = sine_config([EstimatorSpec("E2P", "stack", {"stack": "E2P"})], steps=200,
                      windows=((0, 200),), seeds=(3, 1, 2))
    seen = []
    report = run_experiment(cfg, parallel=2, on_seed=seen.append)
    assert pools == [{"workers": 1, "jobs": [(3, [0]), (2, [0])]}]
    assert [run.seed for run in seen] == [3, 1, 2]
    assert all(a is b for a, b in zip(seen, report.seed_runs))


def test_unknown_report_format_writes_nothing(tmp_path):
    from nnsse.report import emit_report

    cfg = sine_config([EstimatorSpec("E2P", "stack", {"stack": "E2P"})], steps=100,
                      windows=((0, 100),))
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ValueError, match="unknown report format 'tabel'"):
        emit_report(run_experiment(cfg), "tabel", out)
    assert list(out.iterdir()) == []


def test_non_finite_forecast_is_a_recorded_failure(tmp_path):
    # Every cell is finite, so the loader accepts the series, but the
    # forecasts overflow: each estimator must fail instead of reporting a
    # nan or inf window error.
    z = np.where(np.arange(400) % 2 == 0, 1e308, -1e308)
    path = tmp_path / "huge.csv"
    save_trajectory(path, Trajectory(0.005, z))
    cfg = ExperimentConfig(
        trajectory={"source": "file", "path": str(path)},
        horizon=3,
        estimators=[EstimatorSpec("E2P", "stack", {"stack": "E2P"}),
                    EstimatorSpec("UAM-LKE", "uam_lke", {}),
                    EstimatorSpec("E4PTRW", "e4ptrw", {})],
        windows=[(0, 400)],
        seeds=[1])
    with np.errstate(over="ignore", invalid="ignore"):
        run = run_single_seed(cfg, 1)
    for name, res in run.results.items():
        assert res.failure is not None, name
        assert res.failure.endswith("non-finite forecast"), (name, res.failure)
        assert res.window_errors == {}, name
        step = int(res.failure.split(":")[0].removeprefix("step "))
        assert np.isnan(res.predictions[step:]).all(), name


def test_diverging_rows_leave_only_their_failure_lines_on_stderr(tmp_path):
    # Every kind, both stack modes, on the series above: each step overflows
    # or turns invalid, and the failures are recorded, so NumPy must not
    # print warnings (with their source paths) ahead of the failure lines.
    z = np.where(np.arange(400) % 2 == 0, 1e308, -1e308)
    save_trajectory(tmp_path / "huge.csv", Trajectory(0.005, z))
    rows = EVERY_KIND
    config = tmp_path / "run.ini"
    config.write_text("[trajectory]\nsource = file\npath = huge.csv\n[run]\nwindows = 0:400\n"
                      + _roster(rows), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "nnsse", "run", "--config", str(config),
                           "--out-dir", str(tmp_path / "out")], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_ESTIMATOR_FAILURE, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    estimators = report["results"][0]["estimators"]
    assert list(estimators) == list(rows)
    assert all(row["failure"] for row in estimators.values())
    assert proc.stderr == "".join(f"estimator failure (seed 1, {name}): {row['failure']}\n"
                                  for name, row in estimators.items())


def test_overflowing_window_total_is_a_recorded_failure(tmp_path, capsys):
    # Finite forecasts of a finite series whose squared errors sum past the
    # largest float: the total must not be reported as inf, and report.json
    # must stay strict JSON.
    sine = gen_sine(1e200, 1.0, 200.0, 300, 0.0, seed=1)
    path = tmp_path / "huge_sine.csv"
    save_trajectory(path, Trajectory(sine.sample_period, sine.measurement))
    config = tmp_path / "run.ini"
    config.write_text(f"[trajectory]\nsource = file\npath = {path}\n[run]\n"
                      f"windows = 0:300\nmetric = sq_sum\n{_UAM_LKE_ROW}"
                      f"[estimator:E2P]\nkind = stack\nstack = E2P\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) \
        == EXIT_ESTIMATOR_FAILURE
    failure = "window 0-300: non-finite error total"
    assert capsys.readouterr().err == "".join(
        f"estimator failure (seed 1, {name}): {failure}\n" for name in ("UAM-LKE", "E2P"))

    def refuse(constant):
        raise ValueError(f"report.json holds {constant}")

    report = json.loads((out / "report.json").read_text(encoding="utf-8"),
                        parse_constant=refuse)
    for name, row in report["results"][0]["estimators"].items():
        assert row["failure"] == failure, name
        assert row["windows"] == {}, name


def _e4ptrw_pairs_oracle(z, horizon, window_len):
    """Reference E4PTRW over deques of (inputs, next) pairs, restacked per refit."""
    recent = deque(maxlen=5)
    pairs = deque(maxlen=window_len)
    coeffs = np.array(STACK_COEFFS[StackKind.E4PTRW])
    out = []
    for v in map(float, z):
        if len(recent) >= 4:
            pairs.append((np.array(list(recent)[:4]), v))
        recent.appendleft(v)
        if len(pairs) == window_len:
            usable = [(a, y) for a, y in pairs
                      if np.all(np.isfinite(a)) and np.isfinite(y)]
            A = np.stack([a for a, _ in usable])
            y = np.array([t for _, t in usable])
            coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
        if len(recent) < 4:
            out.append(v)
            continue
        stack = StackModel(coeffs)
        out.append(multi_step_predict(stack, np.array(list(recent)[:4]), horizon))
    return np.array(out)


@pytest.mark.parametrize("window", [50, 7])
def test_e4ptrw_array_window_matches_pairs_oracle_bitwise(window):
    rng = np.random.default_rng(11)
    z = 10.0 * np.sin(2 * np.pi * np.arange(400) / 200.0) + rng.standard_normal(400)
    runner = build_runner("E4PTRW", "e4ptrw", {"window": window},
                          RunContext(3, 0.005, 1))
    got = np.array([runner.step(v) for v in z])
    np.testing.assert_array_equal(got, _e4ptrw_pairs_oracle(z, 3, window))


@pytest.mark.parametrize("window", [50, 7])
def test_e4ptrw_refit_in_place_matches_a_model_rebuilt_every_step(window):
    rng = np.random.default_rng(12)
    z = 10.0 * np.sin(2 * np.pi * np.arange(400) / 200.0) + rng.standard_normal(400)
    z[150] = np.nan  # the refit drops its rows, then falls back to the published row
    runner = build_runner("E4PTRW", "e4ptrw", {"window": window},
                          RunContext(3, 0.005, 1))
    stack = runner.step_fn.args[0]
    rows, targets, coeffs = [], [], np.array(STACK_COEFFS[StackKind.E4PTRW])
    got, want = [], []
    for i, v in enumerate(z.tolist()):
        got.append(runner.step(v).hex())
        if i >= 4:
            rows, targets = (rows + [z[i - 4:i][::-1]])[-window:], (targets + [v])[-window:]
        if len(rows) == window:
            coeffs = e4ptrw_refit(np.array(rows), np.array(targets))
        want.append(v.hex() if i < 3 else
                    multi_step_predict(StackModel(coeffs), z[i - 3:i + 1][::-1].copy(), 3).hex())
    assert runner.step_fn.args[0] is stack and got == want


@pytest.mark.parametrize("window", [3, -1])
def test_e4ptrw_window_below_minimum_pairs_rejected(window):
    with pytest.raises(ConfigError, match="window"):
        build_runner("E4PTRW", "e4ptrw", {"window": window},
                     RunContext(3, 0.005, 1))


def test_audit_collects_covariance_health():
    cfg = sine_config([EstimatorSpec("UAM-LKE", "uam_lke", {})], steps=300,
                      windows=((0, 300),))
    run = run_single_seed(cfg, 1, audit=True)
    res = run.results["UAM-LKE"]
    assert res.max_asymmetry == 0.0
    assert res.min_eigenvalue is not None and res.min_eigenvalue >= -1e-9


def _eigvalsh_every_step(covs):
    """The audit without the Cholesky screen: `eigvalsh` on every covariance."""
    asym, eig = 0.0, math.inf
    for cov in covs:
        asym = max(asym, float(np.abs(cov - cov.T).max()))
        eig = min(eig, float(np.linalg.eigvalsh(cov).min()))
    return asym, eig


def _near_tie_covariances(n, rng, steps=12):
    """Covariances whose smallest eigenvalue ties the running minimum w.

    After the first, each step sets one eigenvalue to w (1 ± 10⁻¹⁶…10⁻⁶),
    spreads the rest over six decades and, on some steps, makes one negative.
    Some steps also get an upper triangle that neither LAPACK call reads.
    """
    covs, w = [], math.inf
    for _ in range(steps):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = 10.0 ** rng.uniform(-3, 3, n)
        if rng.random() < 0.15:
            lam[-1] = -lam[-1]
        if w < math.inf:
            lam[0] = w * (1 + rng.choice((-1, 1)) * 10.0 ** -rng.uniform(6, 16))
        cov = (q * lam) @ q.T
        if rng.random() < 0.2:
            cov[np.triu_indices(n, 1)] += rng.standard_normal(n * (n - 1) // 2)
        covs.append(cov)
        w = min(w, float(np.linalg.eigvalsh(cov).min()))
    return covs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 52])
def test_screened_audit_matches_eigvalsh_on_every_step_bitwise(n):
    rng = np.random.default_rng(n)
    sequences = [_near_tie_covariances(n, rng) for _ in range(30)]
    sequences.append([np.zeros((n, n))] * 3)                    # w = 0, zero margin
    sequences.append([-np.eye(n), np.eye(n), np.zeros((n, n))])  # negative w
    for covs in sequences:
        audit = CovarianceAudit()
        for cov in covs:
            assert audit.update(cov)
        # repr round-trips every double and tells -0.0 from 0.0: a bitwise check.
        got = (audit.max_asymmetry, audit.min_eigenvalue)
        assert repr(got) == repr(_eigvalsh_every_step(covs))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 52])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_covariance_is_refused_and_not_recorded(n, bad):
    audit = CovarianceAudit()
    assert audit.update(2.0 * np.eye(n))
    for cells in ([(n - 1, 0)], [(0, n - 1)], [(0, 0)], [(n - 1, 0), (0, n - 1)]):
        cov = np.eye(n)
        for cell in cells:
            cov[cell] = bad
        with np.errstate(invalid="ignore"):  # inf - inf in the asymmetry
            assert not audit.update(cov), cells
    assert not audit.update(np.full((n, n), np.nan))
    assert (audit.max_asymmetry, audit.min_eigenvalue) == (0.0, 2.0)


def _spd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_inline_audit_keeps_the_asymmetry_after_the_screen_breaks(n):
    # w = 1 after the first step.  P[0, 0] = 0.5 breaks the screen at row 0,
    # and the largest |P - Pᵀ| entry sits in the last row.
    cov = _spd(n, np.random.default_rng(n))
    cov[0, 0] = 0.5
    cov[n - 1, n - 2] += 3.0
    audit = CovarianceAudit()
    assert audit.update(np.eye(n)) and audit.update(cov)
    got = (audit.max_asymmetry, audit.min_eigenvalue)
    assert repr(got) == repr(_eigvalsh_every_step([np.eye(n), cov]))
    assert got[0] >= 3.0 and got[1] < 0.5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inline_audit_refuses_a_single_non_finite_entry_anywhere(n, bad):
    rng = np.random.default_rng(n)
    good = [_spd(n, rng) for _ in range(2)]
    want = repr(_eigvalsh_every_step(good))
    cells = [(i, j) for i in range(n) for j in range(n)]  # diagonal, lower, upper
    for breaks_at_row_0 in (False, True):
        audit = CovarianceAudit()
        for cov in good:
            assert audit.update(cov)
        for cell in cells:
            cov = _spd(n, rng)
            if breaks_at_row_0:
                cov[0, 0] = -1.0
            cov[cell] = bad
            with np.errstate(invalid="ignore"):
                assert not audit.update(cov), (cell, breaks_at_row_0)
        assert repr((audit.max_asymmetry, audit.min_eigenvalue)) == want


@pytest.mark.parametrize("n", [3, 8])
def test_read_only_covariance_changed_through_a_view_is_audited_again(n):
    for folds in (1, 2):  # changed before or after its bytes were first taken
        base = 2.0 * np.eye(n)
        cov = base.view()
        cov.flags.writeable = False
        audit = CovarianceAudit()
        for _ in range(folds):
            assert audit.update(cov)
        base[0, 0] = -1.0
        base[n - 1, 0] = 0.5
        assert audit.update(cov)
        got = (audit.max_asymmetry, audit.min_eigenvalue)
        assert repr(got) == repr(_eigvalsh_every_step([2.0 * np.eye(n), base])), folds
        assert got[1] < 0


@pytest.mark.parametrize("n", [3, 8])
def test_writable_covariance_is_skipped_only_while_it_comes_back_unchanged(n, monkeypatch):
    # The running minimum is this P's own smallest eigenvalue, so the screen
    # cannot clear it and every full audit of it runs `eigvalsh`.
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    cov = _spd(n, np.random.default_rng(n))
    first = cov.copy()
    audit = CovarianceAudit()
    for _ in range(3):
        assert audit.update(cov)
    assert cov.flags.writeable and len(calls) == 2  # the first fold and first return
    cov[0, 0] = -1.0
    cov[n - 1, 0] += 0.5
    assert audit.update(cov)
    assert len(calls) == 3
    got = (audit.max_asymmetry, audit.min_eigenvalue)
    assert repr(got) == repr(_eigvalsh_every_step([first, cov]))
    assert got[1] < 0


def test_audit_snapshots_only_covariances_that_come_back(monkeypatch):
    """A read-only covariance handed out once (a shared schedule entry) is
    never copied to bytes; one handed out again (the fixed point) is, once
    per return."""
    plain_update, code = CovarianceAudit.update, CovarianceAudit.update.__code__
    last, returns, snapshots = {}, [], []

    def recording(self, cov):
        returns.append(last.get(id(self)) is cov)
        last[id(self)] = cov
        return plain_update(self, cov)

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code is code and arg.__name__ == "tobytes":
            snapshots.append(1)

    cfg = sine_config([EstimatorSpec("UAM-LKE", "uam_lke", {})], steps=600,
                      windows=((0, 600),), seeds=(1, 2, 3))
    monkeypatch.setattr(CovarianceAudit, "update", recording)
    sys.setprofile(profile)
    try:
        run = run_experiment(cfg, audit=True)
    finally:
        sys.setprofile(None)
    assert len(returns) == 3 * 600 and 0 < sum(returns) < 3 * 599
    assert len(snapshots) == sum(returns)
    assert len({r.results["UAM-LKE"].min_eigenvalue for r in run.seed_runs}) == 1


class _CovarianceTurnsNan(Runner):
    """Persistence forecaster whose n x n covariance is nan from step 51 on."""

    def __init__(self, name, n):
        super().__init__(name)
        self.n = n
        self.steps = 0
        self.state = None

    def step(self, z):
        self.steps += 1
        cov = np.full((self.n, self.n), np.nan) if self.steps > 51 else np.eye(self.n)
        self.state = GaussianBelief(np.full(self.n, z), cov)
        return float(z)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_non_finite_covariance_is_a_recorded_failure(n, monkeypatch, tmp_path):
    real_build = build_runner

    def build(name, kind, params, ctx):
        if name == "STUB":
            return _CovarianceTurnsNan(name, n)
        return real_build(name, kind, params, ctx)

    monkeypatch.setattr("nnsse.bench.build_runner", build)
    good = EstimatorSpec("UAM-LKE", "uam_lke", {})
    cfg = sine_config([EstimatorSpec("STUB", "uam_lke", {}), good], steps=300,
                      windows=((0, 300),))
    run = run_single_seed(cfg, 1, audit=True)
    stub = run.results["STUB"]
    assert stub.failure == "step 51: non-finite covariance"
    assert stub.window_errors == {}
    assert np.isnan(stub.predictions[51:]).all()
    assert stub.min_eigenvalue == 1.0
    solo = run_single_seed(sine_config([good], steps=300, windows=((0, 300),)), 1,
                           audit=True).results["UAM-LKE"]
    assert run.results["UAM-LKE"].failure is None
    assert run.results["UAM-LKE"].window_errors == solo.window_errors

    path = tmp_path / "run.ini"
    path.write_text("[trajectory]\nsteps = 300\n[run]\nseeds = 1\n"
                    "[estimator:STUB]\nkind = uam_lke\n"
                    "[estimator:UAM-LKE]\nkind = uam_lke\n", encoding="utf-8")
    argv = ["run", "--config", str(path), "--out-dir", str(tmp_path / "out"), "--audit"]
    assert main(argv) == EXIT_ESTIMATOR_FAILURE
    assert (tmp_path / "out" / "report.json").is_file()


class _FailsAtStep(Runner):
    """Persistence forecaster with a 2 x 2 covariance that fails at step
    ``k``: ``step`` raises, or its forecast or covariance is not finite."""

    def __init__(self, name, k, how):
        super().__init__(name)
        self.k, self.how, self.i = k, how, -1
        self.state = None

    def step(self, z):
        self.i += 1
        if self.i == self.k and self.how == "raises":
            raise EstimatorError("stub diverged")
        bad = self.i == self.k and self.how == "covariance"
        self.state = GaussianBelief(np.full(2, z), np.full((2, 2), np.nan) if bad else np.eye(2))
        return math.inf if self.i == self.k and self.how == "forecast" else float(z)


@pytest.mark.parametrize("how, audit, message", [
    ("raises", False, "stub diverged"),
    ("forecast", False, "non-finite forecast"),
    ("covariance", True, "non-finite covariance"),
])
@pytest.mark.parametrize("k", [0, 40, 299])
def test_every_in_loop_failure_stops_the_run_at_its_step(how, audit, message, k, monkeypatch):
    monkeypatch.setattr("nnsse.bench.build_runner",
                        lambda name, kind, params, ctx: _FailsAtStep(name, k, how))
    cfg = sine_config([EstimatorSpec("STUB", "uam_lke", {})], steps=300,
                      windows=((0, 300),))
    run = run_single_seed(cfg, 1, audit=audit)
    stub = run.results["STUB"]
    assert stub.failure == f"step {k}: {message}"
    assert stub.predictions.tolist()[:k] == run.trajectory.measurement.tolist()[:k]
    assert np.isnan(stub.predictions[k:]).all()
    assert stub.window_errors == {}


def _audit_oracle(config, seed):
    """Name -> (min_eigenvalue, max_asymmetry), `eigvalsh` on every step."""
    traj = config.make_trajectory(seed)
    ctx = RunContext(config.horizon, traj.sample_period, seed,
                     2.0 * np.pi / traj.meta["period_s"])
    out = {}
    for spec in config.estimators:
        runner = build_runner(spec.name, spec.kind, spec.params, ctx)
        covs = []
        for z in traj.measurement:
            runner.step(z)
            if getattr(runner.state, "cov", None) is not None:
                covs.append(runner.state.cov)
        asym, eig = _eigvalsh_every_step(covs)
        out[spec.name] = (eig if math.isfinite(eig) else None, asym)
    return out


def test_audit_matches_eigvalsh_on_every_step_end_to_end():
    specs = [EstimatorSpec("UAM-LKE", "uam_lke", {}),
             EstimatorSpec("UAM-UKE", "uam_uke", {}),
             EstimatorSpec("NNSSE-UKE", "nnsse_uke", {}),
             EstimatorSpec("NNSSE-EKE", "nnsse_eke", {}),
             EstimatorSpec("NNSSE-5-5-1", "nnsse_uke", {"network": "5-5-1"}),
             EstimatorSpec("NNSSE-Tanh", "nnsse_uke",
                           {"network": "5-5-1", "activation": "tanh"}),
             EstimatorSpec("NNSSE-PE", "nnsse_pe", {"particles": 50}),
             EstimatorSpec("Accurate-Sin", "sine_lke", {}),
             EstimatorSpec("E2P-LKE", "stack", {"stack": "E2P", "mode": "lke"})]
    cfg = sine_config(specs, steps=400, windows=((0, 400),))
    run = run_single_seed(cfg, 1, audit=True)
    expected = _audit_oracle(cfg, 1)
    for spec in specs:
        res = run.results[spec.name]
        assert res.failure is None, spec.name
        got = (res.min_eigenvalue, res.max_asymmetry)
        assert repr(got) == repr(expected[spec.name]), spec.name
    assert run.results["NNSSE-PE"].min_eigenvalue is None


def _eigvalsh_calls_on_a_replay(spec, monkeypatch, tmp_path):
    """Shapes passed to `eigvalsh` by the audit of one 600-step replay."""
    sine = gen_sine(10.0, 1.0, 200.0, 600, 1.0, seed=10)
    path = tmp_path / "recorded.csv"
    save_trajectory(path, Trajectory(sine.sample_period, sine.measurement))
    cfg = ExperimentConfig(
        trajectory={"source": "file", "path": str(path)},
        horizon=3,
        estimators=[spec],
        windows=[(0, 600)])
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    run = run_single_seed(cfg, 1, audit=True)
    assert run.results[spec.name].failure is None
    return calls


def test_audit_runs_eigvalsh_on_few_steps_of_a_52_state_replay(monkeypatch, tmp_path):
    calls = _eigvalsh_calls_on_a_replay(EstimatorSpec("NNSSE-UKE", "nnsse_uke", {}),
                                        monkeypatch, tmp_path)
    assert set(calls) == {(52, 52)}
    assert 1 <= len(calls) <= 60


def test_audit_runs_eigvalsh_on_few_steps_of_a_uam_lke_replay(monkeypatch, tmp_path):
    # n = 3: screened inline, and skipped once the filter freezes its covariance.
    calls = _eigvalsh_calls_on_a_replay(EstimatorSpec("UAM-LKE", "uam_lke", {}),
                                        monkeypatch, tmp_path)
    assert set(calls) == {(3, 3)}
    assert 1 <= len(calls) <= 60


def test_config_validation():
    with pytest.raises(ConfigError):
        sine_config([])
    with pytest.raises(ConfigError):
        sine_config([EstimatorSpec("A", "uam_lke", {}),
                     EstimatorSpec("A", "uam_lke", {})])
    with pytest.raises(ConfigError):
        sine_config([EstimatorSpec("A", "uam_lke", {})], windows=((5, 5),))
    with pytest.raises(ConfigError):
        sine_config([EstimatorSpec("A", "uam_lke", {})], seeds=())


@pytest.mark.parametrize("line, message", [
    ("amplitude = -1", "amplitude = '-1': expected a finite value, positive"),
    ("amplitude = inf", "amplitude = 'inf': expected a finite value, positive"),
    ("period_s = 0", "period_s = '0': expected a finite value, positive"),
    ("rate_hz = nan", "rate_hz = 'nan': expected a finite value, positive"),
    ("noise_var = -1", "noise_var = '-1': expected a finite value, zero or more"),
    ("steps = 400.7", "steps = '400.7': expected a whole number"),
    ("steps = -400", "steps = '-400': expected a finite value, positive"),
])
def test_invalid_sine_trajectory_is_a_config_error(line, message, tmp_path, capsys):
    from nnsse.config import load_config

    path = tmp_path / "bad.ini"
    path.write_text(f"[trajectory]\n{line}\n[run]\nseeds = 1\n"
                    f"[estimator:X]\nkind = uam_lke\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"[trajectory] {message}"
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: [trajectory] {message}\n"


def _config_error(text, tmp_path, capsys, *flags):
    """The ``config error:`` message `nnsse run` prints for a config file
    (exit 1, no report); without flags, also what `load_config` raises."""
    from nnsse.config import load_config

    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    argv = ["run", "--config", str(path), "--out-dir", str(tmp_path / "out"), *flags]
    assert main(argv) == EXIT_CONFIG
    stderr = capsys.readouterr().err
    assert stderr.startswith("config error: ") and stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()
    message = stderr[len("config error: "):-1]
    if not flags:
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == message
    return message


_UAM_LKE_ROW = "[estimator:UAM-LKE]\nkind = uam_lke\n"


def test_negative_warmup_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="warmup"):
        sine_config([EstimatorSpec("A", "uam_lke", {})], warmup=-5)
    sine_config([EstimatorSpec("A", "uam_lke", {})], warmup=0)
    text = f"[trajectory]\nsteps = 300\n[run]\nwarmup = -5\nwindows = 0:300\n{_UAM_LKE_ROW}"
    assert _config_error(text, tmp_path, capsys) == "warmup must be >= 0, got -5"


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="non-negative"):
        sine_config([EstimatorSpec("A", "uam_lke", {})], seeds=(2, -1))
    text = f"[trajectory]\nsteps = 300\n[run]\nseeds = -1\n{_UAM_LKE_ROW}"
    assert _config_error(text, tmp_path, capsys) == \
        "seeds must be non-negative, got [-1]"
    text = f"[trajectory]\nsteps = 300\n[run]\nseeds = 1\n{_UAM_LKE_ROW}"
    assert _config_error(text, tmp_path, capsys, "--seed", "-1") == \
        "seeds must be non-negative, got [-1]"


@pytest.mark.parametrize("section, message", [
    ("[trajectory]\namplitud = 5\n[run]\n", "[trajectory] unknown key: amplitud"),
    ("[trajectory]\n[run]\nhorizn = 4\nseed = 2\n",
     "[run] unknown keys: horizn, seed"),
    ("[trajectory]\nsource = file\npath = x.csv\nsteps = 300\nnoise_var = 0\n"
     "[run]\nwindows = 0:300\n", "[trajectory] unknown keys: steps, noise_var"),
    ("[trajectory]\npath = x.csv\n[run]\n", "[trajectory] unknown key: path"),
])
def test_unknown_trajectory_and_run_keys_are_config_errors(section, message, tmp_path,
                                                           capsys):
    assert _config_error(section + _UAM_LKE_ROW, tmp_path, capsys) == message


@pytest.mark.parametrize("section, message", [
    ("[trajectory]\namplitude = ten\n[run]\n",
     "[trajectory] amplitude = 'ten' is not a valid float"),
    ("[trajectory]\nsteps = 1e3x\n[run]\n", "[trajectory] steps = '1e3x' is not a valid float"),
    ("[trajectory]\n[run]\nhorizon = x\n", "[run] horizon = 'x' is not a valid int"),
    ("[trajectory]\n[run]\nwarmup = 2.5\n", "[run] warmup = '2.5' is not a valid int"),
], ids=["trajectory_float", "trajectory_steps", "run_horizon", "run_warmup"])
def test_non_numeric_trajectory_and_run_values_name_their_key(section, message, tmp_path,
                                                              capsys):
    assert _config_error(section + _UAM_LKE_ROW, tmp_path, capsys) == message


@pytest.mark.parametrize("text, message", [
    ("[trajectory]\n[run]\n[run]\n", "[line 3]: section 'run' already exists"),
    ("[trajectory]\n[run]\nhorizon = 3\nhorizon = 4\n",
     "[line 4]: option 'horizon' in section 'run' already exists"),
    ("horizon = 3\n[trajectory]\n[run]\n", "File contains no section headers."),
], ids=["duplicate_section", "duplicate_key", "no_section_header"])
def test_malformed_ini_is_a_config_error(text, message, tmp_path, capsys):
    assert message in _config_error(text + _UAM_LKE_ROW, tmp_path, capsys)


def test_estimator_name_with_a_comma_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="must not contain ','"):
        sine_config([EstimatorSpec("UAM,LKE", "uam_lke", {})])
    text = "[trajectory]\nsteps = 300\n[run]\nseeds = 1\n[estimator:UAM,LKE]\nkind = uam_lke\n"
    assert _config_error(text, tmp_path, capsys) == \
        "estimator names must not contain ',', got ['UAM,LKE']"


def test_duplicate_windows_are_a_config_error(tmp_path, capsys):
    spec = [EstimatorSpec("A", "uam_lke", {})]
    with pytest.raises(ConfigError, match="unique"):
        sine_config(spec, steps=300, windows=((0, 200), (100, 300), (0, 200)))
    sine_config(spec, steps=300, windows=((0, 200), (0, 300)))
    text = f"[trajectory]\nsteps = 300\n[run]\nwindows = 0:200 0:200\n{_UAM_LKE_ROW}"
    assert _config_error(text, tmp_path, capsys) == \
        "windows must be unique, got [(0, 200), (0, 200)]"


def test_whole_float_steps_and_zero_noise_are_accepted(tmp_path):
    from nnsse.config import load_config

    path = tmp_path / "ok.ini"
    path.write_text("[trajectory]\nsteps = 4e2\nnoise_var = 0\n[run]\nseeds = 1\n"
                    "[estimator:X]\nkind = uam_lke\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.trajectory["steps"] == 400 and isinstance(cfg.trajectory["steps"], int)
    assert cfg.windows == [(0, 400)]
    assert len(cfg.make_trajectory(1)) == 400


def test_run_defaults_are_the_experiment_config_defaults(tmp_path):
    # `load_config` of an empty [run] section passes no run value on, so the
    # field defaults of `ExperimentConfig` are the file's defaults.
    from nnsse.config import load_config

    path = tmp_path / "defaults.ini"
    path.write_text(f"[trajectory]\nsteps = 300\n[run]\n{_UAM_LKE_ROW}", encoding="utf-8")
    direct = ExperimentConfig(trajectory={"source": "sine", "steps": 300},
                              estimators=[EstimatorSpec("UAM-LKE", "uam_lke", {})])
    assert load_config(path) == direct
    assert (direct.horizon, direct.windows, direct.metric, direct.seeds, direct.warmup) \
        == (3, [(0, 300)], Metric.ABS_SUM, [1], None)


def test_config_without_a_run_section_takes_the_run_defaults(tmp_path):
    from nnsse.config import load_config

    paths = []
    for run in ("", "[run]\n"):
        paths.append(tmp_path / f"{len(paths)}.ini")
        paths[-1].write_text(f"[trajectory]\nsteps = 300\n{run}{_UAM_LKE_ROW}",
                             encoding="utf-8")
    assert load_config(paths[0]) == load_config(paths[1])


def test_file_trajectory_without_windows_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="windows = is required for file trajectories"):
        ExperimentConfig(trajectory={"source": "file", "path": "x.csv"},
                         estimators=[EstimatorSpec("UAM-LKE", "uam_lke", {})])
    text = f"[trajectory]\nsource = file\npath = x.csv\n[run]\nseeds = 1\n{_UAM_LKE_ROW}"
    assert _config_error(text, tmp_path, capsys) == \
        "windows = is required for file trajectories"


def test_byte_order_mark_is_ignored(tmp_path, monkeypatch):
    # A UTF-8 byte-order mark before a config or a trajectory CSV (as some
    # editors and spreadsheet exports write) reads as the same file without it.
    sine = gen_sine(10.0, 1.0, 200.0, 300, 1.0, seed=3)
    reports = []
    for bom in ("", "\ufeff"):
        work = tmp_path / ("bom" if bom else "plain")
        work.mkdir()
        save_trajectory(work / "traj.csv", Trajectory(sine.sample_period, sine.measurement))
        csv_text = (work / "traj.csv").read_text(encoding="utf-8")
        (work / "traj.csv").write_text(bom + csv_text, encoding="utf-8")
        config = work / "run.ini"
        config.write_text(f"{bom}[trajectory]\nsource = file\npath = traj.csv\n[run]\n"
                          f"windows = 0:300\n{_UAM_LKE_ROW}", encoding="utf-8")
        monkeypatch.chdir(work)  # the trajectory path is relative
        assert main(["run", "--config", "run.ini", "--out-dir", "out"]) == 0
        report = json.loads((work / "out" / "report.json").read_text(encoding="utf-8"))
        for entry in report["results"]:
            for row in entry["estimators"].values():
                del row["seconds"]
        reports.append(report)
    assert (tmp_path / "bom" / "traj.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert reports[0] == reports[1]


def test_unknown_estimator_parameter_rejected():
    cfg = sine_config([EstimatorSpec("A", "uam_lke", {"qq": 1.0})])
    with pytest.raises(ConfigError, match="qq"):
        run_single_seed(cfg, 1)
