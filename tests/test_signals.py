"""Tests for trajectory generation and CSV persistence."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nnsse.cli import EXIT_CONFIG, main
from nnsse.signals import (
    SINE_DEFAULTS,
    Trajectory,
    TrajectoryFormatError,
    gen_sine,
    load_trajectory,
    save_trajectory,
)

# Pinned output of the Philox(seed)/standard_normal noise stream; any change
# to the generator breaks cross-run reproducibility and must be deliberate.
GOLDEN_NOISE_SEED0 = np.array([
    -0.20597402862922379,
    -0.12884495093462758,
    -0.28978987549091256,
    -1.2719432845738949,
    -1.4064349008284343,
])


def test_gen_sine_quarter_period_peak():
    traj = gen_sine(10, 1.0, 200, 60, 1.0, seed=0)
    assert traj.truth[50] == pytest.approx(10.0, abs=1e-9)
    assert traj.sample_period == pytest.approx(1 / 200)


def test_gen_sine_zero_noise_measurement_equals_truth():
    traj = gen_sine(10, 1.0, 200, 500, 0.0, seed=4)
    np.testing.assert_array_equal(traj.measurement, traj.truth)


def test_gen_sine_noise_variance_bound():
    traj = gen_sine(10, 1.0, 200, 100_000, 1.0, seed=123)
    noise = traj.measurement - traj.truth
    assert 0.98 <= noise.var(ddof=1) <= 1.02


def test_gen_sine_noise_mean_bound():
    n = 100_000
    traj = gen_sine(10, 1.0, 200, n, 1.0, seed=321)
    noise = traj.measurement - traj.truth
    assert abs(noise.mean()) <= 4.0 / np.sqrt(n)


def test_gen_sine_bitwise_determinism():
    a = gen_sine(10, 1.0, 200, 1000, 1.0, seed=42)
    b = gen_sine(10, 1.0, 200, 1000, 1.0, seed=42)
    assert np.array_equal(a.measurement, b.measurement)
    assert np.array_equal(a.truth, b.truth)
    c = gen_sine(10, 1.0, 200, 1000, 1.0, seed=43)
    assert not np.array_equal(a.measurement, c.measurement)


def test_gen_sine_golden_noise_values():
    traj = gen_sine(10, 1.0, 200, 5, 1.0, seed=0)
    np.testing.assert_array_equal(traj.measurement - traj.truth, GOLDEN_NOISE_SEED0)


def test_gen_sine_validation():
    with pytest.raises(ValueError):
        gen_sine(0, 1.0, 200, 10, 1.0, 0)
    with pytest.raises(ValueError):
        gen_sine(10, 1.0, 200, 0, 1.0, 0)
    with pytest.raises(ValueError):
        gen_sine(10, 1.0, 200, 10, -1.0, 0)
    with pytest.raises(ValueError, match="whole number"):
        gen_sine(10, 1, 200, 10.7, 1, 1)
    assert len(gen_sine(10, 1, 200, 10.0, 1, 1)) == 10


def test_simulate_defaults_are_the_sine_defaults(tmp_path):
    out = tmp_path / "sine.csv"
    assert main(["simulate", "--steps", "40", "--out", str(out)]) == 0
    want = gen_sine(*{**SINE_DEFAULTS, "steps": 40}.values(), 1)
    assert load_trajectory(out).measurement.tobytes() == want.measurement.tobytes()


@pytest.mark.parametrize("flag, value", [("--steps", "0"), ("--rate-hz", "-1"),
                                         ("--noise-var", "-1"), ("--noise-var", "inf"),
                                         ("--amplitude", "inf"), ("--period-s", "nan")])
def test_simulate_bad_parameter_is_a_config_error(flag, value, tmp_path, capsys):
    out = tmp_path / "sine.csv"
    assert main(["simulate", flag, value, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("out, message", [
    ("simdir", "--out simdir is a directory"),
    ("afile/x.csv", "--out afile/x.csv: afile is not a directory"),
], ids=["out_is_a_directory", "parent_is_a_file"])
def test_simulate_out_that_cannot_be_written_is_a_config_error(out, message, tmp_path):
    (tmp_path / "simdir").mkdir()
    (tmp_path / "afile").write_text("", encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "nnsse", "simulate", "--steps", "10",
                           "--out", out], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"config error: {message}\n"
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["afile", "simdir"]
    assert (tmp_path / "afile").read_text(encoding="utf-8") == ""


def test_trajectory_validation():
    with pytest.raises(TrajectoryFormatError):
        Trajectory(0.1, np.array([]))
    with pytest.raises(TrajectoryFormatError):
        Trajectory(0.1, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        Trajectory(0.0, np.zeros(3))


def test_reference_prefers_truth():
    t = Trajectory(0.1, np.array([1.0, 2.0]), np.array([1.5, 2.5]))
    np.testing.assert_array_equal(t.reference, t.truth)
    t2 = Trajectory(0.1, np.array([1.0, 2.0]))
    np.testing.assert_array_equal(t2.reference, t2.measurement)


# ---------------------------------------------------------------------------
# CSV round trip


def test_roundtrip_generated_trajectory(tmp_path):
    traj = gen_sine(10, 1.0, 200, 300, 1.0, seed=7)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert back.sample_period == traj.sample_period
    np.testing.assert_array_equal(back.measurement, traj.measurement)
    np.testing.assert_array_equal(back.truth, traj.truth)


def test_roundtrip_without_truth(tmp_path):
    traj = Trajectory(0.005, np.array([0.25, -1.75, 3.125]))
    path = tmp_path / "meas_only.csv"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert back.truth is None
    np.testing.assert_array_equal(back.measurement, traj.measurement)


def test_load_measurement_only_schema(tmp_path):
    # recorded-data files may omit the truth column entirely
    path = tmp_path / "recorded.csv"
    path.write_text("step,t,measurement\n0,0,1.5\n1,0.005,1.25\n", encoding="utf-8")
    traj = load_trajectory(path)
    assert traj.truth is None
    np.testing.assert_allclose(traj.measurement, [1.5, 1.25])
    assert traj.sample_period == pytest.approx(0.005)


def test_load_ignores_unknown_columns(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text(
        "step,t,truth,measurement,pred_X,err_X\n"
        "0,0,1,1.5,,\n1,0.01,2,2.5,2.0,0.5\n", encoding="utf-8")
    traj = load_trajectory(path)
    np.testing.assert_allclose(traj.measurement, [1.5, 2.5])
    np.testing.assert_allclose(traj.truth, [1.0, 2.0])


def test_load_header_only_fails(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("step,t,truth,measurement\n", encoding="utf-8")
    with pytest.raises(TrajectoryFormatError, match="header only"):
        load_trajectory(path)


def test_load_missing_column_fails(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,t,truth\n0,0,1\n", encoding="utf-8")
    with pytest.raises(TrajectoryFormatError, match="measurement"):
        load_trajectory(path)


def test_load_non_numeric_cell_reports_line(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("step,t,truth,measurement\n0,0,1,1.5\n1,0.01,x,2.5\n",
                    encoding="utf-8")
    with pytest.raises(TrajectoryFormatError, match="line 3"):
        load_trajectory(path)


def test_load_non_finite_cell_reports_line_and_column(tmp_path):
    for cell, column in (("nan", "measurement"), ("inf", "measurement"),
                         ("-inf", "truth"), ("NaN", "truth")):
        row = f"1,0.01,2,{cell}" if column == "measurement" else f"1,0.01,{cell},2.5"
        path = tmp_path / "bad_nonfinite.csv"
        path.write_text(f"step,t,truth,measurement\n0,0,1,1.5\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(TrajectoryFormatError, match=f"line 3.*{column}"):
            load_trajectory(path)


@pytest.mark.parametrize("cell", ["abc", "xyz", "", "inf"])
def test_load_refuses_a_step_cell_that_is_not_a_finite_number(tmp_path, cell):
    path = tmp_path / "bad_step.csv"
    path.write_text(f"step,t,truth,measurement\n0,0,1,1.5\n{cell},0.01,2,2.5\n",
                    encoding="utf-8")
    with pytest.raises(TrajectoryFormatError, match=f"line 3: .* {cell!r} in column 'step'"):
        load_trajectory(path)


@pytest.mark.parametrize("column", ["step", "t", "truth", "measurement"])
def test_load_refuses_a_schema_column_named_twice(tmp_path, column):
    path = tmp_path / "twice.csv"
    path.write_text(f"step,t,truth,measurement,{column}\n0,0,1,1.5,2\n1,0.01,2,2.5,3\n",
                    encoding="utf-8")
    with pytest.raises(TrajectoryFormatError,
                       match=f"^line 1: column {column!r} appears more than once$"):
        load_trajectory(path)


def test_load_inconsistent_row_length_reports_line(tmp_path):
    path = tmp_path / "bad3.csv"
    path.write_text("step,t,truth,measurement\n0,0,1,1.5\n1,0.01,2\n",
                    encoding="utf-8")
    with pytest.raises(TrajectoryFormatError, match="line 3"):
        load_trajectory(path)


def _truth_csv(path, steps=600, empty_line=None):
    """Sine CSV with truth on every row but ``empty_line`` (a file line number)."""
    traj = gen_sine(10, 1.0, 200, steps, 1.0, seed=3)
    save_trajectory(path, traj)
    if empty_line is not None:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[empty_line - 1].split(",")
        cells[2] = ""
        lines[empty_line - 1] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")
    return traj


@pytest.mark.parametrize("empty_line", [2, 302, 601])
def test_load_partly_empty_truth_column_fails_at_first_empty_line(tmp_path, empty_line):
    path = tmp_path / "partial.csv"
    _truth_csv(path, empty_line=empty_line)
    with pytest.raises(TrajectoryFormatError,
                       match=f"line {empty_line}: empty truth cell"):
        load_trajectory(path)


def test_partly_empty_truth_column_is_a_config_error_in_the_cli(tmp_path, capsys):
    path = tmp_path / "partial.csv"
    _truth_csv(path, empty_line=302)
    config = tmp_path / "replay.ini"
    config.write_text(f"[trajectory]\nsource = file\npath = {path}\n[run]\n"
                      f"windows = 0:600\n[estimator:UAM-LKE]\nkind = uam_lke\n",
                      encoding="utf-8")
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    assert "config error: line 302: empty truth cell" in capsys.readouterr().err


def test_load_all_empty_truth_column_is_recorded_data(tmp_path):
    path = tmp_path / "recorded.csv"
    path.write_text("step,t,truth,measurement\n0,0,,1.5\n1,0.005,,1.25\n2,0.01,,1\n",
                    encoding="utf-8")
    assert load_trajectory(path).truth is None


@pytest.mark.parametrize("bad_t, line", [("0.0001", 6), ("0.015", 6), ("0.02", 7)])
def test_load_time_must_increase_on_every_line(tmp_path, bad_t, line):
    rows = [f"{i},{i * 0.005:.3f},,{i}.5" for i in range(8)]
    i = line - 2
    rows[i] = f"{i},{bad_t},,{i}.5"
    path = tmp_path / "times.csv"
    path.write_text("step,t,truth,measurement\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(TrajectoryFormatError,
                       match=f"line {line}: time column must be strictly increasing"):
        load_trajectory(path)


@pytest.mark.parametrize("times, line", [
    ("0 0.005 0.5 0.6", 4),
    ("0 0.005 0.01 0.015 0.0200001", 6),
    ("0 0.005 0.01 0.01499", 5),
])
def test_load_time_steps_must_be_uniform(tmp_path, times, line):
    rows = [f"{i},{t},,{i}.5" for i, t in enumerate(times.split())]
    path = tmp_path / "times.csv"
    path.write_text("step,t,truth,measurement\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(TrajectoryFormatError,
                       match=f"line {line}: time step .* differs from the first time "
                             f"step 0.005; samples must be uniformly spaced"):
        load_trajectory(path)


def test_load_accepts_round_off_in_uniform_time_steps(tmp_path):
    path = tmp_path / "times.csv"
    path.write_text("step,t,measurement\n0,0,1\n1,0.005,2\n2,0.0100000000001,3\n"
                    "3,0.015,4\n", encoding="utf-8")
    assert load_trajectory(path).sample_period == 0.005


def test_save_with_extra_columns_nan_blank(tmp_path):
    traj = Trajectory(0.5, np.array([1.0, 2.0, 3.0]))
    path = tmp_path / "run.csv"
    save_trajectory(path, traj, {"pred_A": np.array([np.nan, 1.5, 2.5])})
    text = path.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "step,t,truth,measurement,pred_A"
    assert lines[1].endswith(",")  # NaN cell written empty
    assert "1.5" in lines[2]


def test_save_17_digit_roundtrip(tmp_path):
    vals = np.array([np.pi, 1 / 3, 1e-17, -2.5000000000000004])
    traj = Trajectory(0.1, vals, vals * (1 + 1e-16))
    path = tmp_path / "precise.csv"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    np.testing.assert_array_equal(back.measurement, vals)


def _per_cell_writer(path, trajectory, extra_columns):
    """The row-by-row CSV writer that the column writer replaced."""
    n = len(trajectory)
    header = ["step", "t", "truth", "measurement", *extra_columns.keys()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        T = trajectory.sample_period
        truth = trajectory.truth
        for i in range(n):
            row = [
                str(i),
                format(float(i * T), ".17g"),
                format(float(truth[i]), ".17g") if truth is not None else "",
                format(float(trajectory.measurement[i]), ".17g"),
            ]
            for series in extra_columns.values():
                v = series[i]
                row.append("" if v is None or not np.isfinite(v)
                           else format(float(v), ".17g"))
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("with_truth", [True, False])
def test_column_writer_matches_per_cell_writer_bytewise(tmp_path, with_truth):
    rng = np.random.default_rng(5)
    n = 400
    meas = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    meas[:5] = [np.pi, 1 / 3, 1e-17, -2.5000000000000004, 0.1 + 0.2]
    truth = meas * (1 + 1e-16) if with_truth else None
    pred = rng.standard_normal(n)
    pred[::7] = np.nan
    pred[3], pred[5] = np.inf, -np.inf
    extra = {"pred_A": pred, "err_A": pred - meas, "pred_B": np.full(n, 1 / 3)}
    traj = Trajectory(1 / 200.0, meas, truth)
    save_trajectory(tmp_path / "columns.csv", traj, extra)
    _per_cell_writer(tmp_path / "cells.csv", traj, extra)
    written = (tmp_path / "columns.csv").read_bytes()
    assert written == (tmp_path / "cells.csv").read_bytes()
    rows = written.decode("utf-8").splitlines()
    assert rows[4].split(",")[4] == "" and rows[6].split(",")[4] == ""  # ±inf empty
    assert rows[1].split(",")[3] == "3.1415926535897931"                # 17 digits
