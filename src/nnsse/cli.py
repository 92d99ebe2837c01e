"""Command-line interface: simulate trajectories, run benchmarks, re-render.

Exit codes: 0 success, 1 configuration error (including bad flags),
2 runtime estimator failure (a partial report is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bench import run_experiment
from .config import load_config
from .report import emit_report, load_report, render_table, write_run_csv, write_summary_csv
from .runners import ConfigError
from .signals import SINE_DEFAULTS, TrajectoryFormatError, gen_sine, save_trajectory

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ESTIMATOR_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit code 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nnsse", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a generated noisy-sine trajectory CSV")
    for key, default in SINE_DEFAULTS.items():
        sim.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--out", type=Path, required=True, help="output CSV path")

    run = sub.add_parser("run", help="run a benchmark config and write its report")
    run.add_argument("--config", type=Path, required=True)
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's seed list with one seed")
    run.add_argument("--out-dir", type=Path, default=Path("report"))
    run.add_argument("--format", choices=("table", "csv"), default="table")
    run.add_argument("--parallel", type=int, default=1,
                     help="number of processes to run on: the (seed, "
                          "estimator row) pairs of every seed are packed, "
                          "longest first, into up to this many shares, one "
                          "run here and the others in forked workers (needs "
                          "os.fork), when the estimated saving pays for "
                          "starting them (outputs are the same bytes as a "
                          "serial run); a seed's run CSV is written once it "
                          "and every earlier seed are done (workers' parts are "
                          "read after this process's share), and report.json, "
                          "summary.csv and table.txt once all are (a run that "
                          "stops early leaves its run CSVs and none of these)")
    run.add_argument("--audit", action="store_true",
                     help="check every step's covariance P: report the largest "
                          "|P - P^T| entry and the exact smallest eigenvalue of "
                          "any P, and fail the estimator on a non-finite P; "
                          "eigvalsh runs only on the first step and on steps a "
                          "Cholesky screen cannot rule out")

    rep = sub.add_parser("report", help="re-render a saved report")
    rep.add_argument("--report", type=Path, required=True,
                     help="report.json or the directory containing it")
    rep.add_argument("--format", choices=("table", "csv"), default="table")
    rep.add_argument("--out-dir", type=Path, default=None,
                     help="write re-rendered files here (default: print only)")
    return parser


def _cmd_simulate(args) -> int:
    if args.out.is_dir():
        raise ConfigError(f"--out {args.out} is a directory")
    _check_out_dir(args.out.parent, f"--out {args.out}")
    try:
        traj = gen_sine(**{key: getattr(args, key) for key in SINE_DEFAULTS},
                        seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_trajectory(args.out, traj)
    print(f"wrote {args.out} ({args.steps} steps, seed {args.seed})")
    return EXIT_OK


def _check_out_dir(path: Path, label: str | None = None) -> None:
    """Refuse an output path that cannot be a directory before any work; it is
    not created here, so a run its config refuses leaves no directory.  The
    message starts with ``label``, by default ``--out-dir PATH``."""
    label = label or f"--out-dir {path}"
    try:
        existing = next(p for p in (path, *path.absolute().parents) if p.exists())
    except OSError as exc:
        raise ConfigError(f"{label}: {exc}") from None
    if not existing.is_dir():
        raise ConfigError(f"{label}: {existing} is not a directory")


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seeds=[args.seed])
    _check_out_dir(args.out_dir)
    run_csvs = []  # written while the later seeds run
    report = run_experiment(config, audit=args.audit, parallel=args.parallel,
                            on_seed=lambda run: run_csvs.append(write_run_csv(args.out_dir, run)))
    json_path, later, table = emit_report(report, args.format, args.out_dir)
    if table is not None:
        print(table)
    for path in (json_path, *run_csvs, *later):
        print(f"wrote {path}")
    if report.failures:
        for seed, name, failure in report.failures:
            print(f"estimator failure (seed {seed}, {name}): {failure}",
                  file=sys.stderr)
        return EXIT_ESTIMATOR_FAILURE
    return EXIT_OK


def _cmd_report(args) -> int:
    data = load_report(args.report)
    if args.out_dir is not None:
        _check_out_dir(args.out_dir)
    if args.format == "table":
        text = render_table(data)
        print(text)
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            (args.out_dir / "table.txt").write_text(text, encoding="utf-8")
    else:
        out = args.out_dir if args.out_dir is not None else Path(args.report)
        if out.is_file():
            out = out.parent
        out.mkdir(parents=True, exist_ok=True)
        write_summary_csv(out / "summary.csv", data)
        print(f"wrote {out / 'summary.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"simulate": _cmd_simulate, "run": _cmd_run, "report": _cmd_report}
    try:
        return commands[args.command](args)
    except (ConfigError, TrajectoryFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
