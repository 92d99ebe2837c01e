"""Alternating parent/change pairs of the benchmark in two checkouts.

    python tests/ab_perfbench.py PARENT_DIR CHANGE_DIR --workload stacks \\
        [replay_audit ...] [--pairs 10] [--seconds 50] [--first-seed 1]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in each checkout, with its own working directory and
sources.  Pair i uses workload seed ``first-seed + i``, and the side that
runs first alternates from pair to pair, so that drift of the machine's
load falls on both sides alike.  With several workloads, pair i runs each
of them in turn before pair i + 1 starts, so that every workload sees the
same stretch of the machine's load.  The last line of each run is its JSON
result; every run is printed as it finishes.  At the end, for each workload
and each end-to-end metric of the parent's ``BENCHMARK.json``, the script
prints each side's median and quartiles, the change of the medians, the
number of pairs the change won (ties count for neither side) and whether
the gain rule holds: the change wins at least nine tenths of the pairs and
its median differs from the parent's by more than the parent's
interquartile range.  Fewer than 10 pairs draw a warning: on a shared host
a 4-pair round has read a ``setup_s`` change as ``worse`` that a 10-pair
round did not reproduce.  Next to the gain rule stands the no-regression
verdict against the metric's ``bound``, a share of the parent's median:

- ``ok``: the change's median is worse than the parent's by at most the bound;
- ``worse``: it is worse by more than the bound;
- ``unresolved``: the parent's interquartile range is wider than the bound,
  unless every change run beats every parent run.

It exits 1 if any run failed or reported an incorrect result.

The script writes nothing into either checkout: its child interpreters run
with ``PYTHONDONTWRITEBYTECODE=1``, and ``perfbench/run.py`` removes its own
work directory.  Both checkouts must be in the same ``__pycache__`` state,
best with none in either (a fresh ``git archive`` or ``git clone``): with
bytecode writing off, a stale cache in one checkout makes every fresh
interpreter there recompile ``nnsse``, which once moved ``setup_s`` by
about 15%.  So before the first run the script compares the ``*.pyc`` files
under each checkout's ``src/`` and ``perfbench/`` by relative path, and
refuses to start if they differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in ``checkout``; its JSON result, with the
    exit code as ``returncode``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    result["returncode"] = proc.returncode
    return result


def bytecode_paths(checkout: Path) -> set[str]:
    """Relative paths of the ``*.pyc`` files under ``src/`` and ``perfbench/``."""
    return {path.relative_to(checkout).as_posix() for tree in ("src", "perfbench")
            for path in (checkout / tree).rglob("*.pyc")}


def check_checkouts(parser: argparse.ArgumentParser, parent: Path, change: Path,
                    marker: str) -> dict[str, Path]:
    """The two checkouts by side, resolved.  A parser error (exit 2) if either
    has no ``marker`` path or their ``__pycache__`` states differ."""
    checkouts = {"parent": parent.resolve(), "change": change.resolve()}
    for side, path in checkouts.items():
        if not (path / marker).exists():
            parser.error(f"{side} checkout {path} has no {marker}")
    differing = sorted(bytecode_paths(checkouts["parent"]) ^ bytecode_paths(checkouts["change"]))
    if differing:
        parser.error(f"the checkouts differ in __pycache__ state, e.g. {differing[0]}; "
                     f"remove __pycache__ from both")
    return checkouts


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair i in running order: the first side alternates from
    pair to pair, so that drift of the machine's load falls on both alike."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def alternate(checkouts: dict[str, Path], pairs: int,
              run_side: Callable[[int, str, Path], dict]) -> list[dict]:
    """``{side: run_side(i, side, checkout)}`` for each pair i, its sides run
    in `pair_order`."""
    return [{side: run_side(i, side, checkouts[side]) for side in pair_order(i)}
            for i in range(pairs)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metrics: list[dict], pairs: list[dict]) -> list[str]:
    """One line per end-to-end metric over the pairs that measured it."""
    lines = [f"{'metric':24s} {'unit':5s} {'parent median [q1, q3]':28s} "
             f"{'change median [q1, q3]':28s} {'change':>8s} {'wins':>6s}  "
             f"{'gain rule':9s}  {'bound':>5s} no regression"]
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        measured = [p for p in pairs
                    if all(name in p[side]["metrics"] for side in SIDES)]
        if not measured:
            lines.append(f"{name:24s} not measured")
            continue
        values = {side: [p[side]["metrics"][name]["value"] for p in measured]
                  for side in SIDES}
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(values[s]) for s in SIDES)
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        better = (cmed < pmed) if lower else (cmed > pmed)
        met = wins >= 0.9 * len(measured) and better and abs(cmed - pmed) > pq3 - pq1
        rel = f"{(cmed - pmed) / pmed:+.1%}" if pmed else "n/a"
        slack = spec["bound"] * abs(pmed)
        all_beat = (max(values["change"]) < min(values["parent"]) if lower
                    else min(values["change"]) > max(values["parent"]))
        if pq3 - pq1 > slack and not all_beat:
            verdict = "unresolved"
        else:
            verdict = "worse" if ((cmed - pmed) if lower else (pmed - cmed)) > slack else "ok"
        lines.append(f"{name:24s} {spec['unit']:5s} "
                     f"{f'{pmed:.4g} [{pq1:.4g}, {pq3:.4g}]':28s} "
                     f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':28s} {rel:>8s} "
                     f"{f'{wins}/{len(measured)}':>6s}  {'met' if met else 'not met':9s}  "
                     f"{spec['bound']:5.3g} {verdict}")
    return lines


def run_pairs(checkouts: dict[str, Path], workloads: list[str], pairs: int,
              seconds: int, first_seed: int) -> tuple[dict[str, list[dict]], bool]:
    """Run and print the pairs, workloads interleaved within each pair: per
    workload the list of {side: result}, and whether every run succeeded."""
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    ok = True
    for i in range(pairs):
        seed = first_seed + i
        for workload in workloads:
            pair = {}
            for side in pair_order(i):
                result = pair[side] = run_bench(checkouts[side], workload, seed, seconds)
                good = result["returncode"] == 0 and result.get("correct") is True
                ok &= good
                values = " ".join(f"{name}={m['value']:.4g}"
                                  for name, m in result["metrics"].items())
                print(f"pair {i + 1} seed {seed} {workload} {side:6s} "
                      f"{'ok' if good else 'FAILED'} failed={result.get('failed')} {values}"
                      + ("" if good else f"\n{result.get('stderr', '')}"), flush=True)
            results[workload].append(pair)
    return results, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True,
                        help="one or more workloads of the parent's BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    if len(set(args.workload)) != len(args.workload):
        parser.error(f"--workload names a workload twice: {' '.join(args.workload)}")
    checkouts = check_checkouts(parser, args.parent, args.change, "perfbench/run.py")
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        parser.error(f"unknown workload(s) {' '.join(unknown)}; "
                     f"BENCHMARK.json has {' '.join(known)}")
    if args.pairs < 10:
        print(f"warning: {args.pairs} pairs; the no-regression verdicts need at least 10 "
              f"on a noisy host", file=sys.stderr, flush=True)

    results, ok = run_pairs(checkouts, args.workload, args.pairs, args.seconds,
                            args.first_seed)
    for workload, pairs in results.items():
        print(f"workload {workload}, {args.pairs} pairs, --seconds {args.seconds}, "
              f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
        print("\n".join(summarize(spec["end_to_end"], pairs)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
