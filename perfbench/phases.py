"""Benchmark phases, each run by ``run.py`` in a fresh interpreter.

Usage: ``python3 perfbench/phases.py <phase> <json arguments>``.  The phase
prints one JSON object as the last line of its standard output.

* ``inputs``  - write the workload's config (and replay CSV); report the
  environment.
* ``setup``   - time ``import nnsse``, ``load_config``, trajectory generation
  or loading, and ``build_runner`` for every (seed, estimator) pair.
* ``measure`` - time ``nnsse run`` through ``cli.main`` (untraced) for the
  given seconds, after one warm-up run; check determinism.
* ``trace``   - kernel microbenchmarks, then traced and untraced runs in
  alternating order; per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKERS, WORKLOADS, write_inputs  # noqa: E402

MICRO_TOPOLOGIES = {"ws25": None, "5-5-1": (5, 5, 1), "10-10-1": (10, 10, 1),
                    "5-5-5-1": (5, 5, 5, 1)}
PE_ROWS = 1000


def _environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "git_sha": sha,
        "workload_seed": args["seed"],
        "input_set": args["key"],
    }


def phase_inputs(args) -> dict:
    workload = WORKLOADS[args["workload"]]
    config = write_inputs(workload, args["key"], Path(args["work_dir"]))
    return {"config": str(config), "env": _environment(args)}


def phase_setup(args) -> dict:
    start = time.perf_counter()
    import numpy as np
    from nnsse.config import load_config
    from nnsse.runners import RunContext, build_runner

    config = load_config(args["config"])
    for seed in config.seeds:
        traj = config.make_trajectory(seed)
        omega = None
        if traj.meta.get("source") == "sine":
            omega = 2.0 * np.pi / traj.meta["period_s"]
        ctx = RunContext(config.horizon, traj.sample_period, seed, omega)
        for spec in config.estimators:
            build_runner(spec.name, spec.kind, spec.params, ctx)
    return {"setup_s": time.perf_counter() - start}


class Run:
    """One ``nnsse run`` through ``cli.main``: wall time, exit code and the
    summaries the checks need.  The report itself is kept only on request, so
    that memory does not grow with the number of repeats."""

    def __init__(self, cli_args, main=None, keep_report=False):
        import nnsse.cli as cli

        captured = []
        original = cli.run_experiment

        def capture(*a, **kw):
            captured.append(original(*a, **kw))
            return captured[-1]

        cli.run_experiment = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                self.code = (main or cli.main)(cli_args)
                self.seconds = time.perf_counter() - start
        finally:
            cli.run_experiment = original
        report = captured[0]
        self.report = report if keep_report else None
        self.window_errors = {
            str(run.seed): {name: res.window_errors for name, res in run.results.items()}
            for run in report.seed_runs}
        self.failures = {
            str(run.seed): {name: res.failure for name, res in run.results.items()
                            if res.failure}
            for run in report.seed_runs}
        # (seed, estimator) -> (seconds, steps) of each estimator run
        self.estimator_seconds = {
            (run.seed, name): (res.seconds, len(run.trajectory))
            for run in report.seed_runs for name, res in run.results.items()}


def family_step_us(runs: list, roster: dict) -> dict:
    """Per family: sum over its (seed, estimator) runs of the fastest of the
    repeats, divided by the steps, in microseconds."""
    seconds, steps = {}, {}
    per_run = [r.estimator_seconds for r in runs]
    for key, (_, n) in per_run[0].items():
        family = roster[key[1]]
        seconds[family] = seconds.get(family, 0.0) + min(p[key][0] for p in per_run)
        steps[family] = steps.get(family, 0) + n
    return {f: 1e6 * seconds[f] / steps[f] for f in seconds}


def _same(a: dict, b: dict) -> bool:
    """Bitwise equality of nested window-error maps (NaN equals NaN)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _out_dir(args, label: str) -> Path:
    return Path(args["work_dir"]) / label


def phase_measure(args) -> dict:
    workload = WORKLOADS[args["workload"]]
    roster = workload.roster()
    cli_args = workload.cli_args(Path(args["config"]), _out_dir(args, "report"))
    first = Run(cli_args)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args["seconds"]:
        runs.append(Run(cli_args))
    pool_workers = WORKERS if len(first.window_errors) > 1 else 0
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + pool_workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    errors = first.window_errors
    checks = {"repeat_runs_equal": all(_same(r.window_errors, errors) for r in runs)}
    if len(first.window_errors) > 1:
        serial = Run(workload.cli_args(Path(args["config"]), _out_dir(args, "serial"), 1))
        checks["parallel_1_equals_2"] = _same(serial.window_errors, errors)
    # Co-tenant load makes single runs up to ~1.8x slower in bursts that come
    # and go within seconds, so medians of runs drift with the share of slow
    # bursts; the fastest repeat is the steady figure.
    return {
        "run_s": min(r.seconds for r in runs),
        "runs": len(runs),
        "exit_codes": sorted({r.code for r in [first, *runs]}),
        "peak_rss_mb": peak_kb / 1024.0,
        "step_us": family_step_us(runs, roster),
        "window_errors": errors,
        "failures": first.failures,
        "checks": checks,
    }


def _time_per_call(fn, budget_s: float = 0.02, batches: int = 9) -> float:
    """Seconds per call of the fastest of `batches` timed loops, after warm-up."""
    for _ in range(3):
        fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    loops = max(1, int(budget_s / once))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops)
    return min(samples)


def microbenchmarks(seed: int) -> dict:
    """Kernel times at the row counts the estimators use: 2n+1 sigma points
    for every topology and the PE cloud for the weighted sum."""
    import numpy as np
    from nnsse import model

    rng = np.random.Generator(np.random.Philox(seed))
    out = {}
    for label, widths in MICRO_TOPOLOGIES.items():
        if widths is None:
            top = model.Topology.weighted_sum(25, horizon_a=3)
        else:
            top = model.Topology.mlp(widths, horizon_a=3)
        n = top.state_dim
        row_counts = {label: 2 * n + 1}
        if widths is None:
            row_counts[f"{label}x{PE_ROWS}"] = PE_ROWS
        for name, rows in row_counts.items():
            X = rng.standard_normal((rows, n))
            inputs, weights = X[:, top.network_input_slice], X[:, top.weight_slice]
            out[f"model.forward_batch.us.{name}"] = 1e6 * _time_per_call(
                lambda: model.forward_batch(top, inputs, weights))
            out[f"model.transition_batch.us.{name}"] = 1e6 * _time_per_call(
                lambda: model.transition_batch(top, X))
        x = rng.standard_normal(n)
        out[f"model.transition_jacobian.us.{label}"] = 1e6 * _time_per_call(
            lambda: model.transition_jacobian(top, x))
    return out


class LayerStats:
    """Per-layer totals over traced runs; spans are folded in and dropped."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.step_durations: dict[str, list] = {}
        self.loop_outside = 0.0
        self.loop_steps = 0
        self.self_time_gap = 0.0
        self.runs = 0

    def add(self, tracer, run: Run) -> None:
        from tracing import STEP, step_self_gap, summarize

        for name, entry in summarize(tracer.spans).items():
            agg = self.stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                               "tags": []})
            for key in ("calls", "total", "self"):
                agg[key] += entry[key]
            if name == STEP:
                continue
            agg["tags"].extend(entry["tags"])
        for span in tracer.spans:
            if span[0] == STEP:
                self.step_durations.setdefault(span[4], []).append(span[2] - span[1])
                self.loop_outside -= span[2] - span[1]
        for seconds, steps in run.estimator_seconds.values():
            self.loop_outside += seconds
            self.loop_steps += steps
        self.self_time_gap = max(self.self_time_gap, step_self_gap(tracer.spans))
        self.runs += 1

    def _per_call(self, name, key="total", scale=1e6):
        entry = self.stats.get(name)
        return scale * entry[key] / entry["calls"] if entry else None

    def _calls(self, name) -> int:
        return self.stats.get(name, {}).get("calls", 0)

    def metrics(self, roster: dict) -> dict:
        per_call = self._per_call
        m = {
            "model.transition_batch.self_us": per_call("model.transition_batch", "self"),
            "model.forward_batch.us": per_call("model.forward_batch"),
            "model.transition_jacobian.us": per_call("model.transition_jacobian"),
            "model.predict_ahead.us": per_call("model.predict_ahead"),
            "model.predict_ahead_batch.us": per_call("model.predict_ahead_batch"),
            "estimators.uke_step.self_us": per_call("estimators.uke_step", "self"),
            "estimators.uke_sigma_points.self_us": per_call("estimators.uke_sigma_points",
                                                            "self"),
            "estimators.eke_step.self_us": per_call("estimators.eke_step", "self"),
            "estimators.pe_step.self_us": per_call("estimators.pe_step", "self"),
            "estimators.psd_sqrt.us": per_call("estimators.psd_sqrt"),
            "estimators.lke_step.us": per_call("estimators.lke_step"),
            "estimators.systematic_resample.us": per_call("estimators.systematic_resample"),
            "baselines.e4ptrw_refit.us": per_call("baselines.e4ptrw_refit"),
            "baselines.multi_step_predict.us": per_call("baselines.multi_step_predict"),
            "bench.run_single_seed.s": per_call("bench.run_single_seed", scale=1.0),
            "bench.loop_overhead_us": 1e6 * self.loop_outside / self.loop_steps,
            "report.emit_report.s": per_call("report.emit_report", scale=1.0),
            "signals.gen_sine.s": per_call("signals.gen_sine", scale=1.0),
            "signals.load_trajectory.s": per_call("signals.load_trajectory", scale=1.0),
            "config.load_config.s": per_call("config.load_config", scale=1.0),
        }
        if "runners.build_runner" in self.stats:
            m["runners.build_runner.s"] = self.stats["runners.build_runner"]["total"] / self.runs
        rows = self.stats.get("model.forward_batch", {}).get("tags")
        if rows:
            m["model.forward_batch.rows_per_call"] = sum(rows) / len(rows)
        gaussian_steps = sum(self._calls(f"estimators.{s}")
                             for s in ("uke_step", "eke_step", "pe_step"))
        if gaussian_steps:
            m["estimators.psd_sqrt.calls_per_step"] = (
                self._calls("estimators.psd_sqrt") / gaussian_steps)
        if self._calls("estimators.pe_step"):
            m["estimators.pe.resample_ratio"] = (self._calls("estimators.systematic_resample")
                                                 / self._calls("estimators.pe_step"))
        if "bench.run_experiment" in self.stats:
            m["bench.fanout_eff"] = (self.stats["bench.run_single_seed"]["total"]
                                     / (WORKERS * self.stats["bench.run_experiment"]["total"]))
        for name in roster:
            durations = self.step_durations.get(name)
            if durations:
                m[f"runners.step_us_p50.{name}"] = 1e6 * statistics.median(durations)
                m[f"runners.step_us_p99.{name}"] = (
                    1e6 * statistics.quantiles(durations, n=100)[98])
        return {k: v for k, v in m.items() if v is not None}


def phase_trace(args) -> dict:
    import nnsse
    from tracing import Tracer

    workload = WORKLOADS[args["workload"]]
    roster = workload.roster()
    out = _out_dir(args, "report")
    cli_args = workload.cli_args(Path(args["config"]), out)
    micro = microbenchmarks(args["seed"])

    first = Run(cli_args, keep_report=True)
    untraced, traced = [], []
    layers = LayerStats()
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args["seconds"]:
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(Run(cli_args))
                continue
            with Tracer().install(nnsse) as tracer:
                main = tracer.wrap("run", sys.modules["nnsse.cli"].main)
                run = Run(cli_args, main, keep_report=True)
            tracer.absorb(run.report)
            layers.add(tracer, run)
            run.report = None
            traced.append(run)
    metrics = layers.metrics(roster)
    metrics.update(micro)
    for name, res in first.report.seed_runs[0].results.items():
        if res.window_errors:  # steady-tail window of the first seed, exact
            metrics[f"runners.err_tail.{name}"] = list(res.window_errors.values())[-1]
    metrics["report.bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
    metrics["trace_overhead"] = (min(r.seconds for r in traced)
                                 / min(r.seconds for r in untraced) - 1.0)
    errors = first.window_errors
    return {
        "metrics": metrics,
        "counts": {"traced_runs": len(traced), "untraced_runs": len(untraced)},
        "exit_codes": sorted({r.code for r in [first, *untraced, *traced]}),
        "window_errors": errors,
        "failures": first.failures,
        "checks": {"traced_equals_untraced":
                   all(_same(r.window_errors, errors) for r in [*traced, *untraced]),
                   "trace_self_times": layers.self_time_gap < 1e-6},
    }


PHASES = {"inputs": phase_inputs, "setup": phase_setup, "measure": phase_measure,
          "trace": phase_trace}

if __name__ == "__main__":
    result = PHASES[sys.argv[1]](json.loads(sys.argv[2]))
    print(json.dumps(result, allow_nan=True))
