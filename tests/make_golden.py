"""Record the golden outputs that `test_golden.py` compares every run against.

Two shortened runs of the shipped configs, seed 1:

* ``configs/table1.ini`` cut to its first 1000 steps, windows 0:1000 and
  800:1000 (all ten rows, NNSSE-PE included);
* ``configs/stack_comparison.ini`` at full length.

For every row the file keeps its failure text, its window errors and its
forecasts at steps 0-99 and at every 50th of the run, as ``float.hex``.

Each row's tolerance is measured, not guessed.  The run is repeated with the
first measurement one ulp higher, and a row's *spread* is the largest change
of a compared value, |nudged - golden| / max(|golden|, 1).

* Linear and stack rows (`BITWISE_KINDS`) are compared bitwise: their
  arithmetic has a fixed order, and every change to it so far kept them
  bitwise.
* Any other row is compared with rtol = `SPREAD_FACTOR` x its spread, the
  difference being scaled as above.
* A row whose spread over all its values exceeds `CHAOTIC_SPREAD` is chaotic in
  round-off (NNSSE-Tanh).  It is compared over its first `CHAOTIC_PREFIX`
  forecasts only, with the spread over those.

Re-recording the golden is a change of the check: say which rows moved, by
how much and why.  Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py           # re-record golden.json
    PYTHONPATH=src python tests/make_golden.py --check   # compare, write nothing

``--check`` reruns both cases and prints, per row, its worst change against
`golden.json` (the measure above, over the values the row is compared on)
next to its rtol, and whether it is within it; it exits 1 if a row moved
beyond its rtol or changed its failure.  This is the parent-against-change
table of a change that should keep the outputs.  It then prints the OpenBLAS
kernel the golden was recorded with and the one running now (`blas_core`):
the bitwise rows take their bits from that kernel.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from nnsse.bench import ExperimentConfig, SeedRun, run_single_seed
from nnsse.config import load_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEED = 1
CASES = {
    "table1": ("table1.ini", {"steps": 1000, "windows": [(0, 1000), (800, 1000)]}),
    "stack_comparison": ("stack_comparison.ini", {}),
}
PREFIX = 100           # forecasts 0..PREFIX-1 are all kept
STRIDE_COUNT = 50      # and every (steps // STRIDE_COUNT)-th after them
BITWISE_KINDS = {"uam_lke", "uam_uke", "sine_lke", "stack", "e4ptrw"}
SPREAD_FACTOR = 10.0
CHAOTIC_SPREAD = 1e-6
CHAOTIC_PREFIX = 100


def case_config(name: str) -> ExperimentConfig:
    path, override = CASES[name]
    config = load_config(ROOT / "configs" / path)
    trajectory = dict(config.trajectory)
    if "steps" in override:
        trajectory["steps"] = override["steps"]
    return dataclasses.replace(config, trajectory=trajectory, seeds=[SEED],
                               windows=override.get("windows", config.windows))


class _NudgedConfig(ExperimentConfig):
    """The same experiment with the first measurement one ulp higher."""

    def make_trajectory(self, seed):
        traj = super().make_trajectory(seed)
        traj.measurement[0] = np.nextafter(traj.measurement[0], np.inf)
        return traj


def sample_steps(steps: int) -> list[int]:
    return list(range(min(PREFIX, steps))) + list(range(PREFIX, steps,
                                                        steps // STRIDE_COUNT))


def run_case(config: ExperimentConfig) -> dict:
    """Per row: kind, failure, window errors and the sampled forecasts."""
    return case_rows(config, run_single_seed(config, SEED))


def case_rows(config: ExperimentConfig, run: SeedRun) -> dict:
    """`run_case`'s rows of one seed's run of ``config``."""
    steps = sample_steps(len(run.trajectory))
    kinds = {e.name: e.kind for e in config.estimators}
    return {name: {"kind": kinds[name],
                   "failure": res.failure,
                   "windows": dict(res.window_errors),
                   "forecasts": res.predictions[steps].tolist()}
            for name, res in run.results.items()}


def compared_values(row: dict, prefix: int | None) -> list[float]:
    """The values a row is compared on: every window error and forecast, or
    only its first `prefix` forecasts."""
    if prefix is not None:
        return row["forecasts"][:prefix]
    return list(row["windows"].values()) + row["forecasts"]


def max_change(got: list[float], want: list[float]) -> float:
    """Largest |got - want| / max(|want|, 1); nan if only one side is nan."""
    g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    change = np.abs(g - w) / np.maximum(np.abs(w), 1.0)
    return float(np.where(np.isnan(g) & np.isnan(w), 0.0, change).max(initial=0.0))


def blas_core() -> str:
    """The kernel numpy's OpenBLAS picked at run time (a ``DYNAMIC_ARCH``
    build picks one per CPU, and the bitwise rows take their bits from it),
    or "unknown" when no library in ``numpy.libs`` names it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("openblas configuration", blas.get("name")),
            "blas_core": blas_core(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "machine": platform.machine()}


def record() -> dict:
    golden = {"env": environment(), "seed": SEED, "cases": {}}
    for name in CASES:
        config = case_config(name)
        base = run_case(config)
        nudged = run_case(_NudgedConfig(**{f.name: getattr(config, f.name)
                                           for f in dataclasses.fields(config)}))
        rows = {}
        for row_name, row in base.items():
            prefix = None
            spread = max_change(compared_values(nudged[row_name], None),
                                compared_values(row, None))
            if row["kind"] not in BITWISE_KINDS and spread > CHAOTIC_SPREAD:
                prefix = CHAOTIC_PREFIX
                spread = max_change(compared_values(nudged[row_name], prefix),
                                    compared_values(row, prefix))
            rtol = 0.0 if row["kind"] in BITWISE_KINDS else SPREAD_FACTOR * spread
            rows[row_name] = {
                "kind": row["kind"], "spread": spread, "rtol": rtol,
                "compare_first": prefix, "failure": row["failure"],
                "windows": {k: v.hex() for k, v in row["windows"].items()},
                "forecasts": [v.hex() for v in row["forecasts"]],
            }
        golden["cases"][name] = {"steps": sample_steps(config.trajectory["steps"]),
                                 "rows": rows}
    return golden


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def decoded(row: dict) -> dict:
    """A golden row's window errors and forecasts as floats."""
    return {"windows": {k: float.fromhex(v) for k, v in row["windows"].items()},
            "forecasts": [float.fromhex(v) for v in row["forecasts"]]}


def compare_case(case: str, golden: dict) -> tuple[list[str], dict]:
    """Rerun a case: its row names, and per golden row (worst change, rtol,
    failure now, failure recorded).  A row that is gone or whose window
    names changed gets an infinite change."""
    got_rows = run_case(case_config(case))
    changes = {}
    for name, want in golden["cases"][case]["rows"].items():
        got = got_rows.get(name)
        if got is None or list(got["windows"]) != list(want["windows"]):
            changes[name] = (float("inf"), want["rtol"], None, want["failure"])
            continue
        prefix = want["compare_first"]
        worst = max_change(compared_values(got, prefix),
                           compared_values(decoded(want), prefix))
        changes[name] = (worst, want["rtol"], got["failure"], want["failure"])
    return list(got_rows), changes


def check() -> int:
    golden = load_golden()
    moved = 0
    for case in CASES:
        names, changes = compare_case(case, golden)
        if names != list(golden["cases"][case]["rows"]):
            moved += 1
            print(f"{case}: rows {names}, recorded {list(golden['cases'][case]['rows'])}")
        for name, (worst, rtol, failure, want) in changes.items():
            ok = worst <= rtol and failure == want
            moved += not ok
            print(f"{case:17s} {name:14s} worst {worst:.3g} rtol {rtol:.3g} "
                  f"{'ok' if ok else 'MOVED'}"
                  + ("" if failure == want else f" (failure {failure!r}, was {want!r})"))
    env, recorded = environment(), golden["env"]
    print(f"BLAS core: recorded {recorded.get('blas_core', 'not recorded')}, "
          f"running {env['blas_core']}")
    if {key: env.get(key) for key in recorded} != recorded:
        print(f"recorded on {recorded}, running on {env}")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    data = record()
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for case, entry in data["cases"].items():
        for row_name, row in entry["rows"].items():
            print(f"{case:17s} {row_name:14s} spread {row['spread']:.3g} "
                  f"rtol {row['rtol']:.3g} first {row['compare_first']}")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
