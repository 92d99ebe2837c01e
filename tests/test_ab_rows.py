"""`ab_rows.main` on a stubbed subprocess; no row is timed."""

from __future__ import annotations

import json
import subprocess

import pytest

import ab_rows


def _checkouts(tmp_path):
    paths = []
    for side in ab_rows.SIDES:
        (tmp_path / side / "src" / "nnsse").mkdir(parents=True)
        paths.append(str(tmp_path / side))
    return paths


def _stub_children(monkeypatch, us, hashes=None, failing=(), foreign=()):
    """Replace `subprocess.run`: side's row takes us[(side, row)] per step
    and hashes to hashes[(side, row)] ("h" by default); a side in
    ``failing`` exits 1, one in ``foreign`` imports nnsse from elsewhere.
    Returns the list of (side, cwd, PYTHONPATH, request)."""
    calls = []

    def run(cmd, cwd, env, **kwargs):
        side = cwd.name
        request = json.loads(cmd[-1])
        calls.append((side, cwd, env["PYTHONPATH"], request))
        if side in failing:
            return subprocess.CompletedProcess(cmd, 1, "", "Traceback: boom\n")
        home = "/elsewhere" if side in foreign else str(cwd / "src")
        rows = {row: {"us": us[(side, row)], "hash": (hashes or {}).get((side, row), "h")}
                for row in request["rows"]}
        out = json.dumps({"nnsse": f"{home}/nnsse/__init__.py", "rows": rows})
        return subprocess.CompletedProcess(cmd, 0, out + "\n", "")

    monkeypatch.setattr(ab_rows.subprocess, "run", run)
    return calls


US = {("parent", "E2P"): 4.0, ("change", "E2P"): 4.0,
      ("parent", "E4PTRW"): 25.0, ("change", "E4PTRW"): 40.0}
ARGS = ["--config", "configs/stack_comparison.ini", "--rows", "E2P", "E4PTRW"]


def test_sides_alternate_and_each_row_is_summarized(monkeypatch, tmp_path, capsys):
    calls = _stub_children(monkeypatch, US)
    checkouts = _checkouts(tmp_path)
    assert ab_rows.main([*checkouts, *ARGS, "--pairs", "3", "--steps", "500"]) == 0
    assert [side for side, *_ in calls] == ["parent", "change", "change", "parent",
                                            "parent", "change"]
    for side, cwd, pythonpath, request in calls:
        assert str(cwd) == str(tmp_path / side) and pythonpath == str(cwd / "src")
        assert request == {"config": "configs/stack_comparison.ini",
                           "rows": ["E2P", "E4PTRW"], "steps": 500}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 1 parent E2P=4 E4PTRW=25"
    assert out[6] == ("rows of configs/stack_comparison.ini, 3 pairs, 500 steps, "
                      "best of 15, us per step")
    e2p, e4ptrw = out[8], out[9]
    assert e2p.startswith("step_us.E2P ") and e2p.split()[-1] == "ok" and "0/3" in e2p
    assert e4ptrw.startswith("step_us.E4PTRW ") and e4ptrw.split()[-1] == "worse"
    assert out[10:] == ["E2P: minimum parent 4 change 4; forecasts match",
                        "E4PTRW: minimum parent 25 change 40; forecasts match"]


def test_a_forecast_mismatch_is_reported_not_refused(monkeypatch, tmp_path, capsys):
    _stub_children(monkeypatch, US, hashes={("change", "E4PTRW"): "other"})
    assert ab_rows.main([*_checkouts(tmp_path), *ARGS, "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["E2P: minimum parent 4 change 4; forecasts match",
                        "E4PTRW: minimum parent 25 change 40; forecasts DIFFER"]


@pytest.mark.parametrize("stub", [{"failing": ("change",)}, {"foreign": ("parent",)}],
                         ids=["exit_1", "foreign_nnsse"])
def test_a_failed_side_exits_1_after_the_summary(stub, monkeypatch, tmp_path, capsys):
    _stub_children(monkeypatch, US, **stub)
    assert ab_rows.main([*_checkouts(tmp_path), *ARGS, "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert "step_us.E2P              not measured" in out
    assert "E2P: minimum parent" in out


@pytest.mark.parametrize("flags, message", [
    (["--rows", "E2P"], "the following arguments are required: --config"),
    (["--config", "c.ini", "--rows", "E2P", "E2P"], "names a row twice: E2P E2P"),
    (["--config", "c.ini", "--rows", "E2P", "--pairs", "0"], "--pairs must be >= 1, got 0"),
    (["--config", "c.ini", "--rows", "E2P", "--steps", "0"], "--steps must be >= 1, got 0"),
], ids=["no_config", "twice", "no_pairs", "no_steps"])
def test_bad_arguments_run_nothing(flags, message, monkeypatch, tmp_path, capsys):
    calls = _stub_children(monkeypatch, US)
    with pytest.raises(SystemExit) as exit_:
        ab_rows.main([*_checkouts(tmp_path), *flags])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert calls == []


def test_checkouts_in_different_pycache_states_run_nothing(monkeypatch, tmp_path, capsys):
    calls = _stub_children(monkeypatch, US)
    checkouts = _checkouts(tmp_path)
    cache = tmp_path / "change" / "src" / "nnsse" / "__pycache__"
    cache.mkdir()
    (cache / "runners.cpython-311.pyc").write_bytes(b"")
    with pytest.raises(SystemExit) as exit_:
        ab_rows.main([*checkouts, *ARGS])
    assert exit_.value.code == 2
    assert "differ in __pycache__ state" in capsys.readouterr().err
    assert calls == []
