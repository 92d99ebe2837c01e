"""Workload definitions, seed derivation and the correctness reference.

A workload is a config template under ``configs/`` plus a step count, a seed
count and the ``nnsse run`` flags.  The workload seed picks one of
``INPUT_BANK`` input sets; every trajectory and config seed derives from that
index, so the same workload seed always gives the same inputs and every
input set has a stored reference (``reference.json``, recorded at the commit
that added the benchmark by ``make_reference.py``).
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

INPUT_BANK = 64
WORKERS = 2
BLAS_THREADS = 1

# One-sided: a window error may exceed its reference by this share of it.
# Restructured Gaussian steps change errors in the 7th digit; a broken one
# moves them by percents.
ERROR_TOLERANCE = 1e-3

# Estimator kind -> step-cost family reported as step_us.<family>.
FAMILIES = {
    "nnsse_uke": "nn_uke",
    "nnsse_eke": "nn_eke",
    "nnsse_pe": "nn_pe",
    "uam_lke": "lowdim_kalman",
    "uam_uke": "lowdim_kalman",
    "sine_lke": "lowdim_kalman",
    "stack": "stack_open",
    "e4ptrw": "e4ptrw",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    template: str
    steps: int
    seed_count: int
    audit: bool = False
    replay: bool = False

    @property
    def windows(self) -> str:
        return f"0:{self.steps} {self.steps * 4 // 5}:{self.steps}"

    def input_key(self, workload_seed: int) -> int:
        return workload_seed % INPUT_BANK

    def run_seeds(self, key: int) -> list[int]:
        """Config seeds for one input set; replay uses the next one for its CSV."""
        return [1 + 8 * key + j for j in range(self.seed_count)]

    def trajectory_seed(self, key: int) -> int:
        return 1 + 8 * key + self.seed_count

    def cli_args(self, config_path: Path, out_dir: Path, parallel: int = WORKERS) -> list[str]:
        args = ["run", "--config", str(config_path), "--out-dir", str(out_dir),
                "--parallel", str(parallel)]
        return args + (["--audit"] if self.audit else [])

    def config_text(self, key: int, trajectory_path: Path | None = None) -> str:
        text = (HERE / "configs" / self.template).read_text(encoding="utf-8")
        return text.format(
            steps=self.steps,
            seeds=" ".join(str(s) for s in self.run_seeds(key)),
            windows=self.windows,
            path=trajectory_path,
        )

    def roster(self) -> dict[str, str]:
        """Estimator name -> family, in roster order."""
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                           interpolation=None)
        parser.optionxform = str
        parser.read_string(self.config_text(0, Path("unused.csv")))
        return {s.split(":", 1)[1]: FAMILIES[parser[s]["kind"]]
                for s in parser.sections() if s.startswith("estimator:")}


WORKLOADS = {w.name: w for w in (
    Workload("stacks",
             "stack-comparison roster, five seeds over two workers: per-step "
             "Python overhead, the E4PTRW lstsq refit, seed fan-out, report CSVs",
             "stacks.ini", steps=400, seed_count=5),
    Workload("replay_audit",
             "recorded CSV without truth replayed with --audit: loader input, "
             "errors against measurements, covariance read and eigvalsh per step",
             "replay_audit.ini", steps=600, seed_count=1, audit=True, replay=True),
)}


def write_inputs(workload: Workload, key: int, work_dir: Path) -> Path:
    """Write the config (and, for replay, the truthless CSV); return the config path."""
    from nnsse.signals import Trajectory, gen_sine, save_trajectory

    work_dir.mkdir(parents=True, exist_ok=True)
    csv_path = None
    if workload.replay:
        sine = gen_sine(10.0, 1.0, 200.0, workload.steps, 1.0,
                        workload.trajectory_seed(key))
        csv_path = work_dir / "recorded.csv"
        save_trajectory(csv_path, Trajectory(sine.sample_period, sine.measurement))
    config_path = work_dir / f"{workload.name}.ini"
    config_path.write_text(workload.config_text(key, csv_path), encoding="utf-8")
    return config_path


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_errors(window_errors: dict, failures: dict, reference: dict) -> list[tuple]:
    """(seed, estimator, message) for each failed check of a reference run.

    ``window_errors`` and ``reference`` map seed -> estimator -> window label
    -> accumulated error; ``failures`` maps seed -> estimator -> message.
    Seeds are JSON object keys (strings).
    """
    bad = []
    for seed, by_name in reference.items():
        for name, ref in by_name.items():
            failure = failures.get(seed, {}).get(name)
            windows = window_errors.get(seed, {}).get(name)
            if failure:
                bad.append((seed, name, f"estimator failure: {failure}"))
                continue
            if windows is None:
                bad.append((seed, name, "no result"))
                continue
            for label, ref_value in ref.items():
                value = windows.get(label, math.nan)
                if not math.isfinite(value):
                    bad.append((seed, name, f"window {label} is {value}"))
                elif value > ref_value + ERROR_TOLERANCE * abs(ref_value):
                    bad.append((seed, name, f"window {label} error {value!r} is worse "
                                            f"than the reference {ref_value!r}"))
    return bad
