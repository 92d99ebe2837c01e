"""Record the reference window errors of every workload and input set.

    python3 perfbench/make_reference.py

Runs each workload's roster serially in-process (window errors do not depend
on ``--parallel``) and writes ``reference.json``: workload -> input set ->
seed -> estimator -> window -> accumulated error.  Failed runs are recorded
as ``null`` and make the file unusable; the shipped reference has none.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (INPUT_BANK, REFERENCE_PATH, WORKERS, WORKLOADS,  # noqa: E402
                       write_inputs)


def record(task):
    name, key = task
    from nnsse.bench import run_experiment
    from nnsse.config import load_config

    work = HERE.parent / ".perfbench_work" / f"reference-{name}-{key}"
    try:
        config = load_config(write_inputs(WORKLOADS[name], key, work))
        report = run_experiment(config, audit=WORKLOADS[name].audit, parallel=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return name, key, {
        str(run.seed): {n: (None if res.failure else res.window_errors)
                        for n, res in run.results.items()}
        for run in report.seed_runs}


def main() -> int:
    reference = {}
    tasks = [(name, key) for name in WORKLOADS for key in range(INPUT_BANK)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        for name, key, errors in pool.map(record, tasks):
            reference.setdefault(name, {})[str(key)] = errors
            print(f"{name} input set {key}", flush=True)
    with contextlib.suppress(OSError):  # kept while another benchmark run uses it
        (HERE.parent / ".perfbench_work").rmdir()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    failed = [(n, k) for n, by_key in reference.items() for k, by_seed in by_key.items()
              for by_name in by_seed.values() for v in by_name.values() if v is None]
    if failed:
        print(f"estimator failures in {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
