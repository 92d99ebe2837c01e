"""Trajectory sources: seeded noisy-sine generation and CSV persistence.

Reproducibility: Gaussian noise comes from ``numpy.random.Generator`` over
the counter-based Philox bit generator, via ``standard_normal`` (ziggurat
transform).  The (seed, parameters) pair therefore determines the series
bitwise; golden values are pinned in the test suite.

CSV schema: header ``step,t,truth,measurement`` (UTF-8, ``.`` decimal
separator, LF line endings).  For recorded data the truth column is absent or
every truth cell is empty; a column that is filled on some rows must be
filled on all of them.  Report files append ``pred_<name>`` /
``err_<name>`` columns; unknown columns are ignored on load.  Floats are
written with 17 significant digits so values round-trip losslessly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

REQUIRED_COLUMNS = ("step", "t", "measurement")
# Relative tolerance on each time step against the first (17-digit times of
# a uniform grid differ from it by round-off only).
_PERIOD_RTOL = 1e-6


class TrajectoryFormatError(ValueError):
    """Raised on trajectory CSV input that cannot be read, or is malformed (with a line number)."""


@dataclass
class Trajectory:
    """Uniformly sampled scalar series with optional ground truth."""

    sample_period: float
    measurement: np.ndarray
    truth: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.measurement = np.asarray(self.measurement, dtype=float)
        if self.measurement.size == 0:
            raise TrajectoryFormatError("trajectory must contain at least one sample")
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float)
            if self.truth.shape != self.measurement.shape:
                raise TrajectoryFormatError(
                    "truth and measurement series must have equal length")
        if not self.sample_period > 0:
            raise ValueError("sample period must be > 0")

    def __len__(self) -> int:
        return int(self.measurement.size)

    @property
    def reference(self) -> np.ndarray:
        """Error reference: truth when present, else the measurement itself."""
        return self.measurement if self.truth is None else self.truth


# The shipped sine protocol: gen_sine's parameters in their positional order,
# the defaults of a [trajectory] section and of `nnsse simulate`.
SINE_DEFAULTS = {"amplitude": 10.0, "period_s": 1.0, "rate_hz": 200.0,
                 "steps": 10_000, "noise_var": 1.0}


def gen_sine(amplitude: float, period_s: float, rate_hz: float, steps: int,
             noise_var: float, seed: int) -> Trajectory:
    """Noisy sine: truth_i = A sin(2 pi i / (rate * period)), plus N(0, var).

    Identical (seed, parameters) produce a bitwise-identical trajectory.
    """
    if not all(0 < v < math.inf for v in (amplitude, period_s, rate_hz, steps)):
        raise ValueError("amplitude, period_s, rate_hz and steps must be finite and positive")
    if steps != int(steps):
        raise ValueError(f"steps must be a whole number (got {steps!r})")
    if not 0 <= noise_var < math.inf:
        raise ValueError("noise_var must be finite and >= 0")
    i = np.arange(int(steps))
    truth = amplitude * np.sin(2.0 * np.pi * i / (rate_hz * period_s))
    rng = np.random.Generator(np.random.Philox(seed))
    measurement = truth + np.sqrt(noise_var) * rng.standard_normal(int(steps))
    meta = {
        "source": "sine",
        "seed": int(seed),
        "amplitude": float(amplitude),
        "period_s": float(period_s),
        "rate_hz": float(rate_hz),
        "noise_var": float(noise_var),
    }
    return Trajectory(1.0 / rate_hz, measurement, truth, meta)


def _parse_cell(text: str, column: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise TrajectoryFormatError(
            f"line {line_no}: non-numeric value {text!r} in column {column!r}") from None
    if not np.isfinite(value):
        raise TrajectoryFormatError(
            f"line {line_no}: non-finite value {text!r} in column {column!r}")
    return value


def save_trajectory(path, trajectory: Trajectory,
                    extra_columns: dict[str, np.ndarray] | None = None) -> None:
    """Write the CSV schema; extra columns are appended after `measurement`.

    Extra-column cells that are not finite (NaN, ±inf) are written empty.
    """
    extra = extra_columns or {}
    n = len(trajectory)
    for name, series in extra.items():
        if len(series) != n:
            raise ValueError(f"extra column {name!r} has wrong length")
    header = ["step", "t", "truth", "measurement", *extra.keys()]
    T = float(trajectory.sample_period)
    truth = trajectory.truth
    columns = [
        [str(i) for i in range(n)],
        [format(i * T, ".17g") for i in range(n)],
        [""] * n if truth is None else [format(v, ".17g") for v in truth.tolist()],
        [format(v, ".17g") for v in trajectory.measurement.tolist()],
        *([format(v, ".17g") if math.isfinite(v) else ""
           for v in np.asarray(series, dtype=float).tolist()] for series in extra.values()),
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def read_utf8(path, error: type[ValueError]) -> str:
    """A UTF-8 file's text, less a leading byte-order mark (dropped after
    decoding: error offsets count the file's bytes); one that cannot be read
    or decoded raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_trajectory(path) -> Trajectory:
    """Read the CSV schema back; unknown columns are ignored.

    Raises `TrajectoryFormatError` (with a line number where applicable) on a
    file that cannot be read or is not UTF-8, a missing required column, a
    schema column named twice, a non-numeric or non-finite cell (the unused
    step cells included), an inconsistent row length, a file with no data
    rows, a time that does not exceed the one before it, a time step that
    differs from the first by more than 1e-6 relative, or an empty truth cell
    in a truth column that has values on other rows.  The sample period is
    the first time step, t[1] - t[0] (1.0 for a single row).
    """
    reader = csv.reader(io.StringIO(read_utf8(path, TrajectoryFormatError)))
    try:
        header = next(reader)
    except StopIteration:
        raise TrajectoryFormatError("empty file: no header row") from None
    header = [h.strip() for h in header]
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise TrajectoryFormatError(f"missing column {col!r} in header")
    for col in ("step", "t", "truth", "measurement"):
        if header.count(col) > 1:
            raise TrajectoryFormatError(f"line 1: column {col!r} appears more than once")
    idx = {name: header.index(name) for name in header}
    has_truth = "truth" in idx

    times: list[float] = []
    truth: list[float] = []
    meas: list[float] = []
    first_empty_truth = first_truth = None
    period = 1.0
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue
        if len(row) != len(header):
            raise TrajectoryFormatError(
                f"line {line_no}: expected {len(header)} cells, got {len(row)}")
        _parse_cell(row[idx["step"]], "step", line_no)
        t = _parse_cell(row[idx["t"]], "t", line_no)
        if times and not t > times[-1]:
            raise TrajectoryFormatError(
                f"line {line_no}: time column must be strictly increasing "
                f"({row[idx['t']]!r} after {times[-1]!r})")
        if len(times) == 1:
            period = t - times[0]
        elif times and not abs(t - times[-1] - period) <= _PERIOD_RTOL * period:
            raise TrajectoryFormatError(
                f"line {line_no}: time step {t - times[-1]!r} differs from the "
                f"first time step {period!r}; samples must be uniformly spaced")
        times.append(t)
        meas.append(_parse_cell(row[idx["measurement"]], "measurement", line_no))
        if has_truth:
            cell = row[idx["truth"]].strip()
            if cell == "":
                truth.append(np.nan)
                first_empty_truth = first_empty_truth or line_no
            else:
                truth.append(_parse_cell(cell, "truth", line_no))
                first_truth = first_truth or line_no

    if not meas:
        raise TrajectoryFormatError("empty trajectory: header only, no data rows")
    if first_truth and first_empty_truth:
        raise TrajectoryFormatError(
            f"line {first_empty_truth}: empty truth cell, but line {first_truth} "
            f"has truth; leave every truth cell empty for recorded data")
    truth_arr = np.array(truth) if first_truth else None
    return Trajectory(period, np.array(meas), truth_arr,
                      {"source": "file", "path": str(path)})
