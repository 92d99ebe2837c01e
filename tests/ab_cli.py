"""Alternating parent/change pairs of whole ``nnsse run`` processes in two checkouts.

    python tests/ab_cli.py PARENT_DIR CHANGE_DIR --config configs/stack_comparison.ini \\
        [--parallel 2] [--seed 1] [--pairs 10]

Each pair starts one fresh ``python -m nnsse run --config C --parallel P``
per checkout, with ``--seed N`` when given (that one seed in place of the
config's list), that checkout's ``src`` as the only ``PYTHONPATH`` entry,
its own directory as working directory (a relative ``--config`` names each
checkout's own copy), ``OPENBLAS_NUM_THREADS=1`` and a private output
directory, removed once its run CSVs are read.  The side that runs first
alternates from pair to pair, so that drift of the machine's load falls on
both sides alike.  A run's value is the wall time of its process, start-up
included.

At the end the script prints the line of `ab_perfbench.summarize` for
``wall_s``: each side's median and quartiles, the pairs the change won, the
gain rule and the no-regression verdict against `BOUND`.  Then it says
whether every run of both sides wrote the same run CSVs, byte for byte.  A
mismatch is reported, not refused.  It exits 1 if a run failed, that is
exited with a code other than 0 and 2 (2 is an estimator failure, whose
report is still written).

As `ab_perfbench`, it writes no bytecode into either checkout and refuses
to start when their ``__pycache__`` states differ.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_perfbench import SIDES, alternate, check_checkouts, summarize

# The share of the parent's median a change may be slower by and read
# ``ok``, as for the benchmark's ``run_s``.
BOUND = 0.25
# Exit codes of a run that wrote its report (success, estimator failure).
REPORTED = (0, 2)


def run_side(checkout: Path, config: str, parallel: int, seed: int | None = None) -> dict:
    """One ``nnsse run`` in ``checkout``, of ``seed`` alone when given: its
    wall seconds, exit code and the sha256 of each run CSV it wrote."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    out = Path(tempfile.mkdtemp(prefix="ab_cli-"))
    try:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nnsse", "run", "--config", config, "--parallel",
             str(parallel), "--out-dir", str(out / "report"),
             *([] if seed is None else ["--seed", str(seed)])],
            cwd=checkout, env=env, capture_output=True, text=True, check=False)
        seconds = time.perf_counter() - start
        csvs = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.glob("report/run_seed*.csv"))}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"seconds": seconds, "code": proc.returncode, "csvs": csvs,
            "stderr": proc.stderr[-2000:]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--config", required=True,
                        help="a config file, relative to each checkout or absolute")
    parser.add_argument("--parallel", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None,
                        help="run this one seed in place of the config's seeds")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    for flag in ("parallel", "pairs"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    checkouts = check_checkouts(parser, args.parent, args.change, "src/nnsse")

    def run(i: int, side: str, checkout: Path) -> dict:
        result = run_side(checkout, args.config, args.parallel, args.seed)
        ok = result["code"] in REPORTED
        print(f"pair {i + 1} {side:6s} {result['seconds']:.3f} s exit {result['code']} "
              f"{len(result['csvs'])} run CSVs" + ("" if ok else f"\n{result['stderr']}"),
              flush=True)
        return {"metrics": {"wall_s": {"value": result["seconds"]}} if ok else {},
                "csvs": tuple(result["csvs"].items()), "ok": ok}

    pairs = alternate(checkouts, args.pairs, run)
    outputs = {pair[side]["csvs"] for pair in pairs for side in SIDES if pair[side]["ok"]}
    seed = "" if args.seed is None else f" --seed {args.seed}"
    print(f"nnsse run --config {args.config} --parallel {args.parallel}{seed}, "
          f"{args.pairs} pairs, wall seconds")
    spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": BOUND}]
    print("\n".join(summarize(spec, pairs)))
    files = sorted({name for output in outputs for name, _ in output})
    differing = [name for name in files if len({dict(o).get(name) for o in outputs}) > 1]
    if not outputs:
        verdict = "not compared"
    elif differing:
        verdict = f"DIFFER in {' '.join(differing)}"
    else:
        verdict = f"match ({len(files)} files)"
    print(f"run CSVs of every run: {verdict}")
    return 0 if all(pair[side]["ok"] for pair in pairs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
