"""Alternating parent/change pairs of per-row step times in two checkouts.

    python tests/ab_rows.py PARENT_DIR CHANGE_DIR --config configs/stack_comparison.ini \\
        --rows E2P E4PTRW [...] [--steps 2000] [--pairs 10]

Each pair starts one fresh interpreter per checkout, with that checkout's
``src`` as the only ``PYTHONPATH`` entry, its own directory as working
directory (a relative ``--config`` names each checkout's own copy) and
``OPENBLAS_NUM_THREADS=1``.  The side that runs first alternates from pair
to pair, so that drift of the machine's load falls on both sides alike.

In the interpreter, each named row of the config is built with
`build_runner` on the config's first seed, with a private linear schedule,
and stepped over the first ``--steps`` measurements of that seed's
trajectory, `REPEATS` times on a fresh runner.  The fastest repeat,
in microseconds per step, is the row's value for that side and pair, and a
hash of its forecasts is kept.

At the end, for each row, the script prints each side's minimum over the
pairs, whether the forecast hashes of every run agree, and the line of
`ab_perfbench.summarize` for the metric ``step_us.<row>``: the medians and
quartiles, the pairs the change won, the gain rule and the no-regression
verdict against `BOUND`.  A hash mismatch is reported, not refused: a
change within a stated tolerance may move the last bits.  It exits 1 if a
run failed.

As `ab_perfbench`, it writes no bytecode into either checkout and refuses
to start when their ``__pycache__`` states differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from ab_perfbench import SIDES, alternate, check_checkouts, summarize

# The share of the parent's median a row may be slower by and read ``ok``,
# as for the benchmark's per-step metric.
BOUND = 0.25
# Runs of each row per interpreter; the fastest is kept, since co-tenant load
# only ever adds time.
REPEATS = 15


def measure(config: str, rows: list[str], steps: int) -> None:
    """The child side: print one JSON line, row -> {us, hash}, plus the
    path of the ``nnsse`` package it imported."""
    import numpy as np

    import nnsse
    from nnsse.config import load_config
    from nnsse.runners import RunContext, build_runner

    cfg = load_config(config)
    seed = cfg.seeds[0]
    traj = cfg.make_trajectory(seed)
    omega = 2.0 * np.pi / traj.meta["period_s"] if traj.meta.get("source") == "sine" else None
    ctx = RunContext(cfg.horizon, traj.sample_period, seed, omega)
    specs = {spec.name: spec for spec in cfg.estimators}
    unknown = [row for row in rows if row not in specs]
    if unknown:
        sys.exit(f"unknown row(s) {' '.join(unknown)}; the config has {' '.join(specs)}")
    z = traj.measurement[:steps].tolist()
    out = {"nnsse": nnsse.__file__, "rows": {}}
    for row in rows:
        spec, best = specs[row], math.inf
        for _ in range(REPEATS):
            step = build_runner(spec.name, spec.kind, spec.params, ctx).step
            start = time.perf_counter()
            forecasts = [step(v) for v in z]
            best = min(best, time.perf_counter() - start)
        digest = hashlib.sha256(np.array(forecasts, dtype=float).tobytes()).hexdigest()
        out["rows"][row] = {"us": 1e6 * best / len(z), "hash": digest}
    print(json.dumps(out))


def run_side(checkout: Path, config: str, rows: list[str], steps: int) -> dict:
    """One fresh interpreter in ``checkout``: its rows, or ``error``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    args = json.dumps({"config": config, "rows": rows, "steps": steps})
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--measure", args],
                          cwd=checkout, env=env, capture_output=True, text=True, check=False)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": proc.stderr[-2000:] or f"exit {proc.returncode}"}
    if proc.returncode or not Path(result["nnsse"]).resolve().is_relative_to(checkout):
        return {"error": f"exit {proc.returncode}, nnsse from {result['nnsse']}"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--config", required=True,
                        help="a config file, relative to each checkout or absolute")
    parser.add_argument("--rows", nargs="+", required=True, help="estimator names of the config")
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    for flag in ("steps", "pairs"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if len(set(args.rows)) != len(args.rows):
        parser.error(f"--rows names a row twice: {' '.join(args.rows)}")
    checkouts = check_checkouts(parser, args.parent, args.change, "src/nnsse")

    def run(i: int, side: str, checkout: Path) -> dict:
        result = run_side(checkout, args.config, args.rows, args.steps)
        rows = result.get("rows", {})
        values = " ".join(f"{row}={r['us']:.4g}" for row, r in rows.items())
        print(f"pair {i + 1} {side:6s} {result.get('error') or values}", flush=True)
        return {"metrics": {f"step_us.{row}": {"value": r["us"]} for row, r in rows.items()},
                "hashes": {row: r["hash"] for row, r in rows.items()},
                "ok": "error" not in result}

    pairs = alternate(checkouts, args.pairs, run)
    print(f"rows of {args.config}, {args.pairs} pairs, {args.steps} steps, "
          f"best of {REPEATS}, us per step")
    specs = [{"name": f"step_us.{row}", "unit": "us", "better": "lower", "bound": BOUND}
             for row in args.rows]
    print("\n".join(summarize(specs, pairs)))
    for row in args.rows:
        minima = {side: min((p[side]["metrics"][f"step_us.{row}"]["value"] for p in pairs
                             if f"step_us.{row}" in p[side]["metrics"]), default=math.nan)
                  for side in SIDES}
        hashes = {p[side]["hashes"][row] for p in pairs for side in SIDES
                  if row in p[side]["hashes"]}
        print(f"{row}: minimum parent {minima['parent']:.4g} change {minima['change']:.4g}; "
              f"forecasts {({0: 'not measured', 1: 'match'}).get(len(hashes), 'DIFFER')}")
    return 0 if all(pair[side]["ok"] for pair in pairs for side in SIDES) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:
        measure(**json.loads(sys.argv[2]))
    else:
        sys.exit(main())
