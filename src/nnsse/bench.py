"""Experiment runner: wires trajectories, runners and error accounting.

Per step, every estimator in the roster ingests the measurement and emits a
horizon-step forecast.  Forecast errors are realized ``horizon`` steps later
against truth (or against the measurement for recorded data), and summed over
configurable step windows.  The first ``warmup`` steps (default: the largest
input window in the roster, at least the horizon) are excluded from error
accumulation.  Estimator failures are isolated: the rest of the roster keeps
running and the failure is recorded in the report.  A non-finite forecast
counts as such a failure: it ends that estimator's run like an
`EstimatorError` does, and so does a window total that overflows.  Since
these are recorded, the loop runs with NumPy's overflow and invalid-value
warnings off.

With ``audit``, every Gaussian estimator's covariance P is checked after each
step (`CovarianceAudit`).  The run records the largest |P - Pᵀ| entry and the
smallest eigenvalue of any P, and a P that is not finite is a failure like a
non-finite forecast.  The recorded minimum is exactly what ``eigvalsh`` on
every step would give, but ``eigvalsh`` runs only on the steps that may lower
it: a Cholesky factorisation of P - (w + δ)I that succeeds proves that P has
no eigenvalue at or below the running minimum w (Sylvester's law of inertia).
Up to 5 x 5 the asymmetry, the finiteness check and this screen are one
inline pass over Python floats, from 6 x 6 they go through NumPy and LAPACK.
Only the first step and a failed factorisation run ``eigvalsh``.  A P
handed back right after it was folded in (the frozen covariance of a
steady-state linear filter) is skipped while its bytes stay the same.

With ``parallel`` above 1, `run_experiment` sets every seed up here first
(`_seed_setup`), so a trajectory too short for the warmup fails before any
pool starts.  The (seed, row) items of all seeds are packed longest first,
by µs per step (`_STEP_US`) times steps, into k = min(parallel, items)
shares.  This process runs the lightest; k - 1 forked workers, which
inherit the set-ups, run the others, unless the estimated saving does not
pay for their start-up.  Every part scores its seed's whole-roster warmup; the
parts merge in roster order, bitwise a serial run.

The covariance schedule of a linear filter (`SteadyStateLke`) reads no data,
so the seeds of one `run_experiment` call share it through one module-level
store, `_schedules`.  The call empties it before its seeds are set up and
again when it ends, so forked pool workers inherit it empty, each process
fills its own copy, and no schedule outlives the call: every run recomputes
its own.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .estimators import EstimatorError
from .runners import ConfigError, RunContext, Runner, build_runner
from .signals import SINE_DEFAULTS, Trajectory, gen_sine, load_trajectory


class Metric(Enum):
    ABS_SUM = "abs_sum"
    SQ_SUM = "sq_sum"

    @classmethod
    def parse(cls, text: str) -> "Metric":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown metric {text!r}") from None


def accumulated_error(pred: np.ndarray, ref: np.ndarray, window: tuple[int, int],
                      metric: Metric = Metric.ABS_SUM) -> float:
    """Sum of |pred - ref| (or squared) over the half-open step window."""
    start, end = int(window[0]), int(window[1])
    if end <= start:
        raise ValueError(f"empty error window {window}")
    d = np.asarray(pred[start:end], dtype=float) - np.asarray(ref[start:end], dtype=float)
    if metric is Metric.SQ_SUM:
        return float(np.sum(d * d))
    return float(np.sum(np.abs(d)))


@dataclass
class EstimatorSpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    """Resolved experiment description (see config.py for the file grammar).
    Its field defaults are the one table of ``[run]`` defaults; empty
    ``windows`` are the whole run of a sine trajectory."""

    trajectory: dict                       # sine params or {"path": ...}
    estimators: list[EstimatorSpec]
    horizon: int = 3
    windows: list[tuple[int, int]] = field(default_factory=list)
    metric: Metric = Metric.ABS_SUM
    seeds: list[int] = field(default_factory=lambda: [1])
    warmup: int | None = None              # None: max(horizon, input windows)

    def __post_init__(self):
        if not self.windows:
            if self.trajectory.get("source", "sine") == "file":
                raise ConfigError("windows = is required for file trajectories")
            self.windows = [(0, int(self.trajectory.get("steps", SINE_DEFAULTS["steps"])))]
        if not self.estimators:
            raise ConfigError("estimator roster must not be empty")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.warmup is not None and self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be unique, got {self.seeds}")
        names = [e.name for e in self.estimators]
        if len(set(names)) != len(names):
            raise ConfigError("estimator names must be unique")
        commas = [n for n in names if "," in n]  # each would split its CSV cells
        if commas:
            raise ConfigError(f"estimator names must not contain ',', got {commas}")
        for (s, e) in self.windows:
            if e <= s or s < 0:
                raise ConfigError(f"invalid window {(s, e)}")
        if len(set(map(tuple, self.windows))) != len(self.windows):
            raise ConfigError(f"windows must be unique, got {self.windows}")

    def make_trajectory(self, seed: int) -> Trajectory:
        src = dict(self.trajectory)
        kind = src.pop("source", "sine")
        if kind == "sine":
            return gen_sine(**{**SINE_DEFAULTS, **src}, seed=seed)
        if kind == "file":
            return load_trajectory(src["path"])
        raise ConfigError(f"unknown trajectory source {kind!r}")

    def echo(self) -> dict:
        return {
            "trajectory": dict(self.trajectory),
            "horizon": self.horizon,
            "metric": self.metric.value,
            "windows": [list(w) for w in self.windows],
            "seeds": list(self.seeds),
            "warmup": self.warmup,
            "estimators": [
                {"name": e.name, "kind": e.kind, "params": dict(e.params)}
                for e in self.estimators
            ],
        }


@dataclass
class EstimatorResult:
    """Series and summaries for one estimator on one seed."""

    predictions: np.ndarray          # emitted at step i (forecast of i+a)
    errors: np.ndarray               # realized at target step (signed), NaN-padded
    window_errors: dict[str, float]
    seconds: float
    failure: str | None = None
    min_eigenvalue: float | None = None
    max_asymmetry: float | None = None


@dataclass
class SeedRun:
    seed: int
    trajectory: Trajectory
    order: list[str]
    horizon: int
    warmup: int
    results: dict[str, EstimatorResult]

    def aligned_predictions(self, name: str) -> np.ndarray:
        """Forecasts re-indexed to their target step (NaN where undefined)."""
        return _at_targets(self.results[name].predictions, self.horizon)

    def csv_columns(self) -> dict[str, np.ndarray]:
        cols: dict[str, np.ndarray] = {}
        for name in self.order:
            cols[f"pred_{name}"] = self.aligned_predictions(name)
            cols[f"err_{name}"] = self.results[name].errors
        return cols


@dataclass
class RunReport:
    config: ExperimentConfig
    seed_runs: list[SeedRun]

    @property
    def warmup(self) -> int:
        """Every seed resolves the same warmup from the same config and roster."""
        return self.seed_runs[0].warmup

    @property
    def failures(self) -> list[tuple[int, str, str]]:
        return [(run.seed, name, res.failure) for run in self.seed_runs
                for name, res in run.results.items() if res.failure]


def _at_targets(predictions: np.ndarray, a: int) -> np.ndarray:
    """Forecasts emitted at step i (of step i + a) moved to their target
    step; NaN on the first a steps."""
    return np.concatenate([np.full(a, np.nan), predictions[:len(predictions) - a]])


def resolve_warmup(config: ExperimentConfig, runners: list[Runner]) -> int:
    if config.warmup is not None:
        return int(config.warmup)
    return max([config.horizon] + [r.warmup_hint for r in runners])


# Up to this matrix dimension the audit works on Python floats (`tolist`):
# NumPy and LAPACK call overhead then costs more than the arithmetic.  On a
# step the screen passes, the inline audit beat the LAPACK one up to n = 5
# and tied or lost from n = 6 on (OpenBLAS, one thread; see CHANGES.md).
_INLINE_MAX_DIM = 5
# Safety factor on the screen's margin δ = c n(n+2) ε (|tr P| + |w|).  The
# margin covers the backward error of the Cholesky factorisation, for any
# order of its inner products, and of `eigvalsh` (Higham, Accuracy and
# Stability of Numerical Algorithms, 2002, ch. 10); without it, near-tie
# minima at n = 52 were misreported.
_SCREEN_MARGIN = 4.0
_EPS = float(np.finfo(float).eps)


def _screen_shift(n: int, trace: float, w: float) -> float:
    return w + _SCREEN_MARGIN * n * (n + 2) * _EPS * (abs(trace) + abs(w))


def _inline_audit(rows: list[list[float]], w: float) -> tuple[float, bool]:
    """One pass over a nested-list P: its largest |P - Pᵀ| entry (nan if an
    entry is not finite) and whether the Cholesky factorisation of
    P - (w + δ)I, on its lower triangle, runs to the end (False for w = inf).

    |a - b| = |b - a| exactly, so the differences below the diagonal cover
    every entry off it; a diagonal entry is not finite if and only if
    P_ii - P_ii is not 0.  Once the factorisation breaks down, the pass
    goes on for the asymmetry alone."""
    n = len(rows)
    screen = w < math.inf
    if screen:
        trace = 0.0
        for i in range(n):
            trace += rows[i][i]
        shift = _screen_shift(n, trace, w)
    asym = 0.0
    L: list[list[float]] = []
    for i, row in enumerate(rows):
        Li = []
        for j in range(i):
            d = abs(row[j] - rows[j][i])
            if not d <= asym:          # larger, or nan
                if not math.isfinite(d):
                    return math.nan, False
                asym = d
            if screen:
                Lj = L[j]
                s = row[j]
                for k in range(j):
                    s -= Li[k] * Lj[k]
                Li.append(s / Lj[j])
        s = row[i]
        if s - s != 0.0:
            return math.nan, False
        if screen:
            s -= shift
            for k in range(i):
                s -= Li[k] * Li[k]
            if s > 0.0:
                Li.append(math.sqrt(s))
                L.append(Li)
            else:                      # breakdown, or nan
                screen = False
    return asym, screen


def _lapack_screen(cov: np.ndarray, w: float) -> bool:
    """The screen of `_inline_audit` through LAPACK, for a finite w."""
    n = cov.shape[0]
    shifted = cov.copy()
    shifted.flat[::n + 1] -= _screen_shift(n, float(cov.trace()), w)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass
class CovarianceAudit:
    """Worst covariance health over one estimator's run (see the module doc).

    ``max_asymmetry`` is the largest |P - Pᵀ| entry and ``min_eigenvalue``
    the smallest ``eigvalsh`` eigenvalue of any P passed to `update` (inf
    before the first).  Both equal, bit for bit, what ``eigvalsh`` on every
    step records.

    Folding a P in twice records nothing new, so `update` keeps the last P
    it folded in, and returns at once when handed that same array with the
    same bytes again (a frozen steady-state filter hands out one).  The bytes
    are compared because an array can change in place, or through a view
    even when it is read-only; they are taken, after a full audit, when the
    array first comes back, as most are handed out only once.
    """

    max_asymmetry: float = 0.0
    min_eigenvalue: float = math.inf
    _folded: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)
    _folded_bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def update(self, cov: np.ndarray) -> bool:
        """Fold in one covariance; False, recording nothing, if it is not finite."""
        snapshot = cov.tobytes() if cov is self._folded else None
        if snapshot is not None and snapshot == self._folded_bytes:
            return True
        w = self.min_eigenvalue
        # The asymmetry is also the finiteness check, which must come first
        # (a nan matrix factors without raising; `eigvalsh` returns nan,
        # which `min` ignores, or raises).  Every entry enters a difference,
        # and one that is not finite makes it inf or nan (inf - inf is nan).
        if cov.shape[0] <= _INLINE_MAX_DIM:
            asym, screened = _inline_audit(cov.tolist(), w)
        else:
            asym = float(np.abs(cov - cov.T).max())
            screened = math.isfinite(asym) and w < math.inf and _lapack_screen(cov, w)
        if not math.isfinite(asym):
            return False
        self.max_asymmetry = max(self.max_asymmetry, asym)
        if not screened:
            self.min_eigenvalue = min(w, float(np.linalg.eigvalsh(cov).min()))
        self._folded, self._folded_bytes = cov, snapshot
        return True


def _seed_setup(config: ExperimentConfig, seed: int, lke_schedules: dict | None):
    """One seed's trajectory, roster runners, warmup and scored window spans;
    a `ConfigError` if the trajectory is too short for them."""
    traj = config.make_trajectory(seed)
    n = len(traj)
    a = config.horizon
    sine = traj.meta.get("source") == "sine"
    omega = 2.0 * np.pi / traj.meta["period_s"] if sine else None
    ctx = RunContext(a, traj.sample_period, seed, omega, lke_schedules)
    runners = [build_runner(e.name, e.kind, e.params, ctx) for e in config.estimators]
    warmup = resolve_warmup(config, runners)
    first_target = warmup + a
    if first_target >= n:
        raise ConfigError(
            f"trajectory too short ({n} steps) for warmup {warmup} + horizon {a}")
    spans = {}  # label -> the window clipped to the scored steps
    for (s, e) in config.windows:
        lo, hi = max(s, first_target), min(e, n)
        if hi <= lo:
            raise ConfigError(
                f"window {(s, e)} has no steps past warmup+horizon ({first_target})")
        spans[f"{s}-{e}"] = (lo, hi)
    return traj, runners, warmup, spans


def run_single_seed(config: ExperimentConfig, seed: int, audit: bool = False,
                    lke_schedules: dict | None = None, rows: list[int] | None = None,
                    setup: tuple | None = None) -> SeedRun:
    """Execute the full roster on one seed's trajectory; the linear filters
    share ``lke_schedules`` (see `SteadyStateLke`) when one is given.  With
    ``setup``, the seed's `_seed_setup` result, run its runners instead of
    building new ones; with ``rows``, only those roster indices, in order."""
    traj, runners, warmup, spans = setup or _seed_setup(config, seed, lke_schedules)
    if rows is not None:
        runners = [runners[i] for i in rows]
    n = len(traj)
    a = config.horizon
    first_target = warmup + a
    ref = traj.reference
    z = traj.measurement.tolist()  # runners step on Python floats
    results: dict[str, EstimatorResult] = {}
    # A step or window total that overflows or turns invalid is recorded as
    # a failure below, so NumPy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for runner in runners:
            preds = [math.nan] * n
            failure = None
            health = CovarianceAudit()
            t0 = time.perf_counter()
            try:
                for i in range(n):
                    forecast = runner.step(z[i])
                    if not math.isfinite(forecast):
                        raise EstimatorError("non-finite forecast")
                    if (audit and (cov := getattr(runner.state, "cov", None)) is not None
                            and not health.update(cov)):
                        raise EstimatorError("non-finite covariance")
                    preds[i] = forecast
            except EstimatorError as exc:  # the one way a run stops early
                failure = f"step {i}: {exc}"
            seconds = time.perf_counter() - t0
            preds = np.array(preds, dtype=float)

            aligned = _at_targets(preds, a)
            errors = np.full(n, np.nan)
            errors[first_target:] = aligned[first_target:] - ref[first_target:]
            window_errors: dict[str, float] = {}
            if failure is None:
                for label, span in spans.items():
                    total = accumulated_error(aligned, ref, span, config.metric)
                    if not math.isfinite(total):
                        failure = f"window {label}: non-finite error total"
                        window_errors = {}
                        break
                    window_errors[label] = total
            results[runner.name] = EstimatorResult(
                predictions=preds,
                errors=errors,
                window_errors=window_errors,
                seconds=seconds,
                failure=failure,
                min_eigenvalue=(health.min_eigenvalue
                                if audit and math.isfinite(health.min_eigenvalue) else None),
                max_asymmetry=(health.max_asymmetry if audit else None),
            )
    return SeedRun(seed, traj, [r.name for r in runners], a, warmup, results)


# What forked pool jobs inherit from a `run_experiment` call, emptied when it
# ends: the schedules its seeds share, and its config, audit flag and set-ups.
_schedules: dict = {}
_plan: dict = {}


def _seed_worker(job):
    seed, rows = job
    return run_single_seed(_plan["config"], seed, _plan["audit"], _schedules, rows,
                           _plan["setups"][seed])


def __getattr__(name):
    # The pool class loads on first use, so `import nnsse` does not load
    # `concurrent.futures.process` and `multiprocessing`.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Estimated microseconds per step of one row of each kind, a + b s^p for a
# runner of `Runner.size` s.  Fitted to a serial configs/table1.ini run
# (10 000 steps, one seed; 2 shared vCPUs, OPENBLAS_NUM_THREADS=1): PE
# 1000 x 52 at 1290, the UKE at n = 37, 62 and 122 at 135, 155 and 415 (its
# weighted sum at n = 52 runs 110), the EKE at n = 52 at 78, UAM-UKE 47,
# Accurate-Sin 14, UAM-LKE 5; the stacks from perfbench's `stacks`.  Only the
# ratios and the saving against _POOL_START_S matter.  `--audit` (~45 us per
# step on each NN row) is left out: it does not change perfbench's
# `replay_audit` packing, {NNSSE-UKE, UAM-LKE} and {NNSSE-5-5-1, NNSSE-EKE}.
_STEP_US = {
    "uam_lke": (5.0, 0.0, 0),
    "uam_uke": (47.0, 0.0, 0),
    "sine_lke": (14.0, 0.0, 0),
    "nnsse_uke": (127.0, 1.6e-4, 3),
    "nnsse_eke": (0.0, 0.029, 2),
    "nnsse_pe": (0.0, 0.0248, 1),
    "stack": (3.0, 0.0, 0),
    "e4ptrw": (25.0, 0.0, 0),
}
# Start-up charged per pool worker, in seconds: importing the pool's
# modules, forking, handing a result back and shutting down took 30-45 ms
# for the first pool of a process and 9 ms for a later one (same host).
_POOL_START_S = 0.04


def _pack_longest_first(costs: list[float], k: int) -> list[tuple[float, list[int]]]:
    """(load, item indices) of k shares, lightest first: each item, in order
    of falling cost (ties in item order), joins the share with the least
    load so far (LPT; Graham, SIAM J. Appl. Math. 1969)."""
    shares = [(0.0, []) for _ in range(k)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        j = min(range(k), key=lambda j: shares[j][0])
        shares[j] = (shares[j][0] + costs[i], shares[j][1] + [i])
    return sorted(shares, key=lambda share: share[0])


def _run_plan(config: ExperimentConfig, audit: bool, parallel: int, done) -> None:
    """Every seed's rows on the plan of the module doc; see `run_experiment`."""
    setups = {seed: _seed_setup(config, seed, _schedules) for seed in config.seeds}
    _plan.update(config=config, audit=audit, setups=setups)
    costs, r = [], len(config.estimators)
    for traj, runners, _, _ in setups.values():
        for spec, runner in zip(config.estimators, runners):
            a, b, p = _STEP_US[spec.kind.strip().lower()]
            costs.append(1e-6 * (a + b * runner.size ** p) * len(traj))
    k = min(parallel, len(costs))
    shares = _pack_longest_first(costs, k)
    if sum(costs) - shares[-1][0] <= _POOL_START_S * (k - 1):
        shares = [(0.0, list(range(len(costs))))]  # every item here, in roster order
    # Item j is row j % r of seed j // r; a job is one seed's rows in a share.
    own, *others = [[(seed, rows) for s, seed in enumerate(config.seeds)
                     if (rows := [j % r for j in share if j // r == s])]
                    for _, share in shares]
    pooled = [job for seed in config.seeds for jobs in others for job in jobs if job[0] == seed]
    parts, waiting = {seed: [] for seed in config.seeds}, list(config.seeds)

    def collect(seed: int, part: SeedRun) -> None:
        parts[seed].append(part)
        while waiting and len(parts[w := waiting[0]]) == sum(s == w for s, _ in own + pooled):
            # Fold into the last part, a worker's when any: what it attached stays.
            *rest, run = parts.pop(waiting.pop(0))
            merged = {name: res for each in (*rest, run) for name, res in each.results.items()}
            run.order = [e.name for e in config.estimators]
            run.results = {name: merged[name] for name in run.order}
            done(run)

    if others:
        from multiprocessing import get_context
        from .bench import ProcessPoolExecutor  # through __getattr__ or a patch
        pool = ProcessPoolExecutor(max_workers=len(others), mp_context=get_context("fork"))
    with pool if others else nullcontext():
        pending = pool.map(_seed_worker, pooled) if others else ()
        for seed, rows in own:
            collect(seed, run_single_seed(config, seed, audit, _schedules, rows, setups[seed]))
        for (seed, _), part in zip(pooled, pending):
            collect(seed, part)


def run_experiment(config: ExperimentConfig, audit: bool = False,
                   parallel: int = 1, on_seed=None) -> RunReport:
    """Run every (seed, estimator) pair on up to `parallel` processes: the
    seeds one after another, or above 1 on the one plan of the module doc
    (`_run_plan`), bitwise a serial run.

    ``on_seed``, when given, is called in this process with each `SeedRun`,
    in seed order, once it holds every part of that seed and of every earlier
    one: this process runs its own share first, then reads the workers'
    parts, while they may still run later seeds.  A seed that raises stops
    the run before ``on_seed`` sees it or any later seed.  Workers are
    forked, so ``parallel`` above 1 needs ``os.fork``."""
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, got {parallel}")
    if parallel > 1 and not hasattr(os, "fork"):
        raise ConfigError("parallel above 1 needs os.fork, which this platform lacks")
    seed_runs = []

    def done(run: SeedRun) -> None:
        seed_runs.append(run)
        if on_seed is not None:
            on_seed(run)

    _schedules.clear()  # forked workers inherit it empty
    try:
        if parallel > 1:
            _run_plan(config, audit, parallel, done)
        else:
            for seed in config.seeds:
                done(run_single_seed(config, seed, audit, _schedules))
    finally:
        _schedules.clear()
        _plan.clear()
    return RunReport(config, seed_runs)
