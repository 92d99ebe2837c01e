"""`ab_cli.main` on a stubbed subprocess and clock; no run is timed."""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

import ab_cli


def _checkouts(tmp_path):
    paths = []
    for side in ab_cli.SIDES:
        (tmp_path / side / "src" / "nnsse").mkdir(parents=True)
        paths.append(str(tmp_path / side))
    return paths


def _stub_children(monkeypatch, seconds, codes=None, csvs=None):
    """Replace `subprocess.run` and the clock: side's run takes seconds[side],
    exits with codes[side] (0 by default) and writes csvs[side] (two run
    CSVs by default) into its --out-dir.  Returns the list of (side, cwd,
    env, command)."""
    calls, clock = [], [0.0]

    def run(cmd, cwd, env, **kwargs):
        side = cwd.name
        calls.append((side, cwd, env, cmd))
        out = Path(cmd[cmd.index("--out-dir") + 1])
        out.mkdir(parents=True)
        for name, text in (csvs or {}).get(side, {"run_seed1.csv": "a", "run_seed2.csv": "b"}
                                           ).items():
            (out / name).write_text(text, encoding="utf-8")
        (out / "report.json").write_text("{}", encoding="utf-8")
        clock[0] += seconds[side]
        code = (codes or {}).get(side, 0)
        return subprocess.CompletedProcess(cmd, code, "", "Traceback: boom\n" if code else "")

    monkeypatch.setattr(ab_cli.subprocess, "run", run)
    monkeypatch.setattr(ab_cli.time, "perf_counter", lambda: clock[0])
    return calls


SECONDS = {"parent": 2.5, "change": 2.0}
ARGS = ["--config", "configs/stack_comparison.ini"]


def test_sides_alternate_in_private_out_dirs(monkeypatch, tmp_path, capsys):
    calls = _stub_children(monkeypatch, SECONDS)
    assert ab_cli.main([*_checkouts(tmp_path), *ARGS, "--parallel", "2", "--pairs", "3"]) == 0
    assert [side for side, *_ in calls] == ["parent", "change", "change", "parent",
                                            "parent", "change"]
    outs = set()
    for side, cwd, env, cmd in calls:
        assert str(cwd) == str(tmp_path / side)
        assert env["PYTHONPATH"] == str(cwd / "src")
        assert env["PYTHONDONTWRITEBYTECODE"] == "1" and env["OPENBLAS_NUM_THREADS"] == "1"
        assert cmd[1:8] == ["-m", "nnsse", "run", "--config", "configs/stack_comparison.ini",
                            "--parallel", "2"]
        out = Path(cmd[cmd.index("--out-dir") + 1])
        assert not out.parent.exists()  # removed once read
        outs.add(out)
    assert len(outs) == 6
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 1 parent 2.500 s exit 0 2 run CSVs"
    assert out[6] == ("nnsse run --config configs/stack_comparison.ini --parallel 2, "
                      "3 pairs, wall seconds")
    wall = out[8]
    assert wall.startswith("wall_s ") and "3/3" in wall and " met " in wall
    assert wall.split()[-1] == "ok"
    assert out[9] == "run CSVs of every run: match (2 files)"


def test_seed_is_passed_to_every_run(monkeypatch, tmp_path, capsys):
    calls = _stub_children(monkeypatch, SECONDS, csvs={side: {"run_seed1.csv": "a"}
                                                       for side in ab_cli.SIDES})
    checkouts = _checkouts(tmp_path)
    assert ab_cli.main([*checkouts, *ARGS, "--parallel", "2", "--seed", "1",
                        "--pairs", "2"]) == 0
    assert len(calls) == 4
    for side, cwd, env, cmd in calls:
        assert cmd[1:8] == ["-m", "nnsse", "run", "--config", "configs/stack_comparison.ini",
                            "--parallel", "2"]
        assert cmd[-2:] == ["--seed", "1"] and cmd.count("--seed") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[4] == ("nnsse run --config configs/stack_comparison.ini --parallel 2 --seed 1, "
                      "2 pairs, wall seconds")
    assert out[-1] == "run CSVs of every run: match (1 files)"
    calls.clear()
    assert ab_cli.main([*checkouts, *ARGS, "--pairs", "1"]) == 0
    assert len(calls) == 2 and all("--seed" not in cmd for *_, cmd in calls)


def test_a_run_csv_mismatch_is_reported_not_refused(monkeypatch, tmp_path, capsys):
    csvs = {"change": {"run_seed1.csv": "a", "run_seed2.csv": "other"}}
    _stub_children(monkeypatch, SECONDS, csvs=csvs)
    assert ab_cli.main([*_checkouts(tmp_path), *ARGS, "--pairs", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "run CSVs of every run: DIFFER in run_seed2.csv"


def test_an_estimator_failure_is_a_run_and_any_other_exit_fails(monkeypatch, tmp_path,
                                                               capsys):
    checkouts = _checkouts(tmp_path)
    _stub_children(monkeypatch, SECONDS, codes={"parent": 2})
    assert ab_cli.main([*checkouts, *ARGS, "--pairs", "2"]) == 0
    capsys.readouterr()
    _stub_children(monkeypatch, SECONDS, codes={"change": 1})
    assert ab_cli.main([*checkouts, *ARGS, "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert "Traceback: boom" in out
    assert "wall_s                   not measured" in out
    assert out.splitlines()[-1] == "run CSVs of every run: match (2 files)"


@pytest.mark.parametrize("flags, message", [
    ([], "the following arguments are required: --config"),
    (["--config", "c.ini", "--pairs", "0"], "--pairs must be >= 1, got 0"),
    (["--config", "c.ini", "--parallel", "0"], "--parallel must be >= 1, got 0"),
], ids=["no_config", "no_pairs", "no_parallel"])
def test_bad_arguments_run_nothing(flags, message, monkeypatch, tmp_path, capsys):
    calls = _stub_children(monkeypatch, SECONDS)
    with pytest.raises(SystemExit) as exit_:
        ab_cli.main([*_checkouts(tmp_path), *flags])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert calls == []


def test_checkouts_in_different_pycache_states_run_nothing(monkeypatch, tmp_path, capsys):
    calls = _stub_children(monkeypatch, SECONDS)
    checkouts = _checkouts(tmp_path)
    cache = tmp_path / "parent" / "src" / "nnsse" / "__pycache__"
    cache.mkdir()
    (cache / "cli.cpython-311.pyc").write_bytes(b"")
    with pytest.raises(SystemExit) as exit_:
        ab_cli.main([*checkouts, *ARGS])
    assert exit_.value.code == 2
    assert "differ in __pycache__ state" in capsys.readouterr().err
    assert calls == []
