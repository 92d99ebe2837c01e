"""Tests of the benchmark itself: smoke runs, trace restore, units, checks."""

from __future__ import annotations

import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import nnsse  # noqa: E402
from run import unit_of  # noqa: E402
from tracing import STEP, Tracer, self_times, step_self_gap, summarize  # noqa: E402
from workloads import WORKLOADS, check_errors  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def _printed_metrics(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            out[name] = (float(value), unit)
    return out


def _check_output(proc, declared: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = _printed_metrics(proc.stdout)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value == {"value": value["value"], "unit": m["unit"]}
        assert math.isfinite(value["value"]) and value["value"] != 0
        assert printed[m["name"]] == (value["value"], m["unit"])
    return printed


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_untraced(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    printed = _check_output(proc, SPEC["end_to_end"])
    assert printed["fail_ratio"] == (0.0, "ratio")
    families = set(WORKLOADS[workload].roster().values())
    assert {n for n in printed if n.startswith("step_us.")} == {
        f"step_us.{f}" for f in families}
    assert "check repeat_runs_equal ok" in proc.stdout


def test_smoke_run_traced():
    proc = _bench("--workload", "replay_audit", "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    printed = _check_output(proc, SPEC["per_layer"])
    assert "check traced_equals_untraced ok" in proc.stdout
    assert "check trace_self_times ok" in proc.stdout
    assert printed["estimators.psd_sqrt.calls_per_step"][0] > 0
    assert printed["bench.loop_overhead_us"][0] > 0  # the audit runs outside step


def test_declared_units_match_the_printed_units():
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit_of(m["name"]) == m["unit"], m["name"]
    assert unit_of("runners.step_us_p99.NNSSE-5-5-1") == "us"
    assert unit_of("estimators.uke_step.self_us") == "us"
    assert unit_of("signals.load_trajectory.s") == "s"
    assert unit_of("runners.err_tail.E4P") == "abs_sum"


def _attributes():
    """Every attribute of every nnsse module and runner class, by identity."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "nnsse" or name.startswith("nnsse."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
                if inspect.isclass(value):
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    return snap


def _tiny_config(tmp_path):
    text = (BENCH / "configs" / "stacks.ini").read_text(encoding="utf-8")
    text = text.format(steps=120, seeds="1 2 3", windows="0:120 60:120")
    path = tmp_path / "tiny.ini"
    path.write_text(text, encoding="utf-8")
    return nnsse.config.load_config(path)


def test_tracer_restores_every_patched_attribute(tmp_path):
    import nnsse.bench
    import nnsse.config  # noqa: F401  (the snapshot must cover every layer module)
    import nnsse.report  # noqa: F401

    before = _attributes()
    config = _tiny_config(tmp_path)
    with Tracer().install(nnsse) as tracer:
        assert nnsse.runners.lke_step is not before[("nnsse.runners", "lke_step")]
        assert nnsse.estimators.lke_step is nnsse.runners.lke_step
        assert nnsse.model.forward_batch is not before[("nnsse.model", "forward_batch")]
        report = nnsse.bench.run_experiment(config, parallel=2)
    tracer.absorb(report)
    after = _attributes()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []  # (pickling the config may add __slotnames__; that is not a patch)

    stats = summarize(tracer.spans)
    assert stats["bench.run_single_seed"]["calls"] == 3  # shipped back by pool workers
    roots = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "bench.run_single_seed"}
    assert roots == {"bench.run_experiment"}
    steps = [s for s in tracer.spans if s[0] == STEP]
    assert len(steps) == 3 * 120 * len(config.estimators)
    assert step_self_gap(tracer.spans) < 1e-9


def test_traced_run_matches_untraced(tmp_path):
    import nnsse.bench

    config = _tiny_config(tmp_path)
    plain = nnsse.bench.run_experiment(config, parallel=1)
    with Tracer().install(nnsse):
        traced = nnsse.bench.run_experiment(config, parallel=1)
    for a, b in zip(plain.seed_runs, traced.seed_runs):
        for name in a.order:
            assert a.results[name].window_errors == b.results[name].window_errors


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],   # overlaps a (parallel children)
        ["c", 1.5, 2.0, 1, None],
        ["d", 9.0, 12.0, 0, None],  # runs past the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 3.0, 0.5, 3.0])


def test_reference_check_is_one_sided():
    ref = {"1": {"E": {"0-10": 100.0}}}
    assert check_errors({"1": {"E": {"0-10": 90.0}}}, {}, ref) == []
    assert check_errors({"1": {"E": {"0-10": 100.05}}}, {}, ref) == []
    assert len(check_errors({"1": {"E": {"0-10": 100.2}}}, {}, ref)) == 1
    assert len(check_errors({"1": {"E": {"0-10": math.nan}}}, {}, ref)) == 1
    assert len(check_errors({"1": {"E": {}}}, {"1": {"E": "step 5: boom"}}, ref)) == 1
    assert len(check_errors({}, {}, ref)) == 1


def test_benchmark_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stacks",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
