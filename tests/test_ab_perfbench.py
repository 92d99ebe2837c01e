"""`ab_perfbench.summarize` on synthetic pairs, and `main` on stubbed
benchmark runs; no benchmark is run."""

from __future__ import annotations

import json

import pytest

import ab_perfbench


def _pairs(name, parent, change):
    return [{"parent": {"metrics": {name: {"value": p}}},
             "change": {"metrics": {name: {"value": c}}}} for p, c in zip(parent, change)]


def _row(parent, change, better="lower", bound=0.25):
    spec = {"name": "run_s", "unit": "s", "better": better, "bound": bound}
    header, row = ab_perfbench.summarize([spec], _pairs("run_s", parent, change))
    assert header.split()[-2:] == ["no", "regression"]
    return row


TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]  # median 1.0
WIDE = [1.0, 2.0] * 5                                              # IQR 1, median 1.5


@pytest.mark.parametrize("parent, change, better, verdict", [
    (TIGHT, [v * 1.1 for v in TIGHT], "lower", "ok"),
    (TIGHT, [1.25] * 10, "lower", "ok"),                # worse by exactly the bound
    (TIGHT, [v * 1.4 for v in TIGHT], "lower", "worse"),
    (TIGHT, [v * 0.5 for v in TIGHT], "lower", "ok"),
    (WIDE, [1.4, 1.6] * 5, "lower", "unresolved"),
    (WIDE, [v * 3.0 for v in WIDE], "lower", "unresolved"),
    (WIDE, [0.9] * 10, "lower", "ok"),                  # every change run beats every parent run
    (WIDE, [2.1] * 10, "higher", "ok"),
    (TIGHT, [v * 0.7 for v in TIGHT], "higher", "worse"),
    (TIGHT, [v * 0.9 for v in TIGHT], "higher", "ok"),
], ids=["ok", "ok_at_bound", "worse", "faster", "unresolved", "unresolved_worse",
        "wide_but_all_beat", "higher_all_beat", "higher_worse", "higher_ok"])
def test_no_regression_verdict(parent, change, better, verdict):
    assert _row(parent, change, better).split()[-1] == verdict


def test_gain_rule_and_verdict_stand_side_by_side():
    row = _row(TIGHT, [v * 0.8 for v in TIGHT])
    assert row.split()[-5:] == ["-20.0%", "10/10", "met", "0.25", "ok"]
    row = _row(TIGHT, [v * 1.4 for v in TIGHT])
    assert row.split()[-6:] == ["+40.0%", "0/10", "not", "met", "0.25", "worse"]


def test_a_metric_no_pair_measured():
    spec = {"name": "step_us.lowdim_kalman", "unit": "us", "better": "lower", "bound": 0.25}
    lines = ab_perfbench.summarize([spec], _pairs("run_s", [1.0], [1.0]))
    assert lines[1] == f"{'step_us.lowdim_kalman':24s} not measured"


# ---------------------------------------------------------------------------
# main on stubbed benchmark runs


def _checkouts(tmp_path):
    """Parent and change checkouts with a stub perfbench/run.py each; the
    parent's BENCHMARK.json declares two workloads and one metric."""
    paths = []
    for side in ab_perfbench.SIDES:
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("", encoding="utf-8")
        paths.append(str(root))
    spec = {"workloads": [{"name": "stacks"}, {"name": "replay_audit"}],
            "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower",
                            "bound": 0.25}]}
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    return paths


def _stub_runs(monkeypatch, values, failing=()):
    """Replace `run_bench`: run_s is values[(workload, side)]; a (workload,
    side, seed) in ``failing`` exits 1.  Returns the list of calls."""
    calls = []

    def run_bench(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append((side, workload, seed, seconds))
        bad = (workload, side, seed) in failing
        return {"returncode": 1 if bad else 0, "correct": not bad, "failed": 0,
                "metrics": {"run_s": {"value": values[(workload, side)]}}}

    monkeypatch.setattr(ab_perfbench, "run_bench", run_bench)
    return calls


VALUES = {("stacks", "parent"): 1.0, ("stacks", "change"): 1.0,
          ("replay_audit", "parent"): 2.0, ("replay_audit", "change"): 4.0}


def test_workloads_interleave_within_each_pair(monkeypatch, tmp_path, capsys):
    calls = _stub_runs(monkeypatch, VALUES)
    argv = [*_checkouts(tmp_path), "--workload", "stacks", "replay_audit",
            "--pairs", "2", "--seconds", "3", "--first-seed", "7"]
    assert ab_perfbench.main(argv) == 0
    assert calls == [("parent", "stacks", 7, 3), ("change", "stacks", 7, 3),
                     ("parent", "replay_audit", 7, 3), ("change", "replay_audit", 7, 3),
                     ("change", "stacks", 8, 3), ("parent", "stacks", 8, 3),
                     ("change", "replay_audit", 8, 3), ("parent", "replay_audit", 8, 3)]
    out = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(out) if line.startswith("workload ")]
    assert [out[i] for i in heads] == [
        "workload stacks, 2 pairs, --seconds 3, seeds 7-8",
        "workload replay_audit, 2 pairs, --seconds 3, seeds 7-8"]
    # each summary is a header and one row, over its own workload's pairs only
    stacks_row, replay_row = out[heads[0] + 2], out[heads[1] + 2]
    assert stacks_row.split()[-1] == "ok" and "+0.0%" in stacks_row
    assert replay_row.split()[-1] == "worse" and "+100.0%" in replay_row


def test_fewer_than_ten_pairs_warn(monkeypatch, tmp_path, capsys):
    _stub_runs(monkeypatch, VALUES)
    checkouts = _checkouts(tmp_path)
    assert ab_perfbench.main([*checkouts, "--workload", "stacks", "--pairs", "4"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: 4 pairs;") and err.count("\n") == 1
    assert ab_perfbench.main([*checkouts, "--workload", "stacks", "--pairs", "10"]) == 0
    assert capsys.readouterr().err == ""


def test_a_failed_run_exits_1_after_every_summary(monkeypatch, tmp_path, capsys):
    calls = _stub_runs(monkeypatch, VALUES, failing={("stacks", "change", 1)})
    argv = [*_checkouts(tmp_path), "--workload", "stacks", "replay_audit", "--pairs", "10"]
    assert ab_perfbench.main(argv) == 1
    assert len(calls) == 40
    out = capsys.readouterr().out
    assert "pair 1 seed 1 stacks change FAILED" in out
    assert out.count("\nworkload ") == 2


@pytest.mark.parametrize("flags, message", [
    ([], "the following arguments are required: --workload"),
    (["--workload"], "expected at least one argument"),
    (["--workload", "stacks", "stacks"], "names a workload twice: stacks stacks"),
    (["--workload", "stacks", "all"],
     "unknown workload(s) all; BENCHMARK.json has stacks replay_audit"),
    (["--workload", "stacks", "--pairs", "0"], "--pairs must be >= 1, got 0"),
], ids=["missing", "empty", "twice", "unknown", "no_pairs"])
def test_bad_arguments_run_nothing(flags, message, monkeypatch, tmp_path, capsys):
    calls = _stub_runs(monkeypatch, VALUES)
    with pytest.raises(SystemExit) as exit_:
        ab_perfbench.main([*_checkouts(tmp_path), *flags])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("cached", [
    ["change/src/nnsse/__pycache__/bench.cpython-311.pyc"],
    ["parent/perfbench/__pycache__/run.cpython-311.pyc"],
    ["parent/src/nnsse/__pycache__/bench.cpython-311.pyc",
     "change/src/nnsse/__pycache__/bench.cpython-312.pyc"],
], ids=["change_only", "parent_only", "other_interpreter"])
def test_checkouts_in_different_pycache_states_run_nothing(cached, monkeypatch, tmp_path,
                                                           capsys):
    calls = _stub_runs(monkeypatch, VALUES)
    checkouts = _checkouts(tmp_path)
    for rel in cached:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(b"")
    with pytest.raises(SystemExit) as exit_:
        ab_perfbench.main([*checkouts, "--workload", "stacks"])
    assert exit_.value.code == 2
    first = sorted(rel.split("/", 1)[1] for rel in cached)[0]
    assert f"differ in __pycache__ state, e.g. {first};" in capsys.readouterr().err
    assert calls == []


def test_checkouts_in_the_same_pycache_state_run(monkeypatch, tmp_path):
    calls = _stub_runs(monkeypatch, VALUES)
    checkouts = _checkouts(tmp_path)
    for side in ab_perfbench.SIDES:
        cache = tmp_path / side / "src" / "nnsse" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "bench.cpython-311.pyc").write_bytes(side.encode())
    assert ab_perfbench.main([*checkouts, "--workload", "stacks", "--pairs", "10"]) == 0
    assert len(calls) == 20
