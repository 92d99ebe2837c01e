"""nnsse benchmark: end-to-end and per-layer metrics for two workloads.

    python3 perfbench/run.py --workload stacks --seed 1 --seconds 50 --trace 0

``--workload all`` runs every workload in turn.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` runs the traced measurement that
gives the per-layer metrics and the tracing overhead.  Every phase runs in a
fresh interpreter with single-threaded BLAS; ``nnsse run`` fans seeds out
over two workers.  Each metric is printed as ``metric <name> <value>
<unit>``; the last line is one JSON object with ``correct``, ``attempted``
(reference (seed, estimator) runs), ``failed`` and the metrics that
``BENCHMARK.json`` declares.  The exit code is 1 when a correctness or
determinism check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import BLAS_THREADS, WORKERS, WORKLOADS, check_errors, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # before and again after the timed runs
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, too few cores, a crash)."""


def unit_of(name: str) -> str:
    """Unit from the metric's name: ``.us``/``_us`` segments are microseconds,
    a trailing ``.s``/``_s`` is seconds, and plain quotients are ratios."""
    for suffix, unit in (("_mb", "MB"), ("bytes_written", "B"), ("rows_per_call", "rows"),
                         ("calls_per_step", "calls")):
        if name.endswith(suffix):
            return unit
    if ".err_tail." in name:
        return "abs_sum"
    if re.search(r"(^|[._])us($|[._])", name):
        return "us"
    if re.search(r"[._]s$", name):
        return "s"
    return "ratio"


def declared_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_phase(phase: str, payload: dict) -> dict:
    """Run one phase in a fresh interpreter, in its own process group so that
    a timeout also stops the pool workers it forked."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "phases.py"), phase, json.dumps(payload)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{phase} phase exceeded {CHILD_TIMEOUT_S} s") from exc
        raise
    with contextlib.suppress(ProcessLookupError):  # nothing of the phase outlives it
        os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    key = workload.input_key(seed)
    work_dir = ROOT / ".perfbench_work" / f"{name}-seed{seed}-{os.getpid()}"
    payload = {"workload": name, "seed": seed, "key": key, "seconds": seconds,
               "work_dir": str(work_dir)}
    try:
        inputs = run_phase("inputs", payload)
        payload["config"] = inputs["config"]
        if trace:
            result = run_phase("trace", payload)
            metrics = dict(result["metrics"])
            samples = result["counts"]
        else:
            # Half the set-ups before the timed runs and half after, so that
            # their median samples the machine at two moments.
            setups = [run_phase("setup", payload)["setup_s"] for _ in range(SETUP_REPEATS)]
            result = run_phase("measure", payload)
            setups += [run_phase("setup", payload)["setup_s"] for _ in range(SETUP_REPEATS)]
            metrics = {"setup_s": statistics.median(setups), "run_s": result["run_s"],
                       "peak_rss_mb": result["peak_rss_mb"]}
            for family, value in result["step_us"].items():
                metrics[f"step_us.{family}"] = value
            samples = {"setups": len(setups), "runs": result["runs"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work_dir.parent.rmdir()

    reference = load_reference()[name][str(key)]
    problems = check_errors(result["window_errors"], result["failures"], reference)
    attempted = sum(len(by_name) for by_name in reference.values())
    failed = len({(s, e) for s, e, _ in problems})
    if not trace:
        metrics["fail_ratio"] = failed / attempted
    checks = dict(result["checks"])
    if set(result["exit_codes"]) - {0, 2}:
        checks["cli_exit_code"] = False
    return {"workload": name, "env": inputs["env"], "metrics": metrics, "samples": samples,
            "attempted": attempted, "failed": failed, "problems": problems,
            "checks": checks}


def print_result(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['env']['workload_seed']}  "
          f"input set {res['env']['input_set']}  samples {json.dumps(res['samples'])}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, value in res["metrics"].items():
        print(f"metric {name} {value!r} {unit_of(name)}")
    for check, ok in res["checks"].items():
        print(f"check {check} {'ok' if ok else 'FAILED'}")
    print(f"check reference {res['attempted'] - res['failed']}/{res['attempted']} runs "
          f"within tolerance")
    for seed, est, problem in res["problems"]:
        print(f"  seed {seed} {est}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "nnsse" / "__init__.py").is_file():
            raise BenchError(f"no nnsse sources under {ROOT / 'src'}")
        nproc = len(os.sched_getaffinity(0))
        if WORKERS * BLAS_THREADS > nproc:
            raise BenchError(f"{WORKERS} workers x {BLAS_THREADS} BLAS threads "
                             f"exceed {nproc} cores")
        declared = declared_metrics(bool(args.trace))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    for res in results:
        print_result(res)
    correct = all(not r["problems"] and all(r["checks"].values()) for r in results)
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        for name in declared:
            if name in res["metrics"]:
                key = f"{res['workload']}.{name}" if prefix else name
                metrics[key] = {"value": res["metrics"][name], "unit": unit_of(name)}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
