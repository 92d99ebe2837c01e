"""Span tracing of the nnsse layers from outside the library.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent, tag).  It patches each
module attribute that holds the function, so ``nnsse.runners.uke_step`` and
``nnsse.estimators.uke_step`` are both traced: every caller looks the name up
in its own module.  The ``step`` method of each runner class is traced too,
tagged with the runner's name.  `Tracer.restore` puts every original back.

Seed runs fanned out to forked pool workers record their spans in the worker;
the worker ships them back on the returned seed run and `Tracer.absorb` files
them under the parent's ``bench.run_experiment`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("config", "signals", "runners", "estimators", "model", "baselines",
          "bench", "report")

# O(1) accessors called from properties or once per sigma point: a span
# would cost more than the body it measures.
SKIP = {"model.weight_count", "model.observe", "model.observe_batch"}

STEP = "runners.Runner.step"

# Span tags: rows per kernel call, runner name per step.
TAGS = {
    "model.forward_batch": lambda args: len(args[1]),
    STEP: lambda args: args[0].name,
}

# Tracer whose spans a forked seed worker appends to (see _traced_seed_worker).
_ACTIVE: "Tracer | None" = None


class Tracer:
    """In-memory span recorder; spans are lists [name, start, end, parent, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seed_worker = None

    def wrap(self, name: str, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tag(args) if tag else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> "Tracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is installed")
        try:
            self._install(package.__name__)
        except BaseException:
            self.restore()
            raise
        _ACTIVE = self
        return self

    def _install(self, prefix: str) -> None:
        names = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{prefix}.{layer}")
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    names[value] = name
        wrappers = {fn: self.wrap(name, fn, TAGS.get(name)) for fn, name in names.items()}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == prefix or key.startswith(prefix + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

        runners = sys.modules[f"{prefix}.runners"]
        for cls in vars(runners).values():
            if (isinstance(cls, type) and issubclass(cls, runners.Runner)
                    and "step" in vars(cls)):
                self._patch(cls, "step", self.wrap(STEP, vars(cls)["step"], TAGS[STEP]))

        bench = sys.modules[f"{prefix}.bench"]
        self._seed_worker = bench._seed_worker
        self._patch(bench, "_seed_worker", _traced_seed_worker)

    def restore(self) -> None:
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def absorb(self, report) -> None:
        """Move spans shipped back by pool workers into this tracer."""
        roots = [i for i, s in enumerate(self.spans) if s[0] == "bench.run_experiment"]
        for run in report.seed_runs:
            shipped = run.__dict__.pop("perfbench_spans", None)
            if shipped is None:
                continue
            base, spans = shipped
            offset = len(self.spans) - base
            for name, start, end, parent, tag in spans:
                parent = roots[-1] if parent < base else parent + offset
                self.spans.append([name, start, end, parent, tag])


def _traced_seed_worker(args):
    """Pool-side `bench._seed_worker`: run it and attach the spans it made."""
    tracer = _ACTIVE
    base = len(tracer.spans)
    forked_stack = tracer._stack[:]
    tracer._stack.clear()
    try:
        run = tracer._seed_worker(args)
    finally:
        tracer._stack[:] = forked_stack
    run.perfbench_spans = (base, tracer.spans[base:])
    del tracer.spans[base:]
    return run


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, tag in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, tag) in enumerate(spans):
        covered, reached = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reached), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reached = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, and the list of tags."""
    stats: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(span[0], {"calls": 0, "total": 0.0, "self": 0.0, "tags": []})
        entry["calls"] += 1
        entry["total"] += span[2] - span[1]
        entry["self"] += own
        if span[4] is not None:
            entry["tags"].append(span[4])
    return stats


def step_self_gap(spans) -> float:
    """|sum of self times inside runner steps - sum of step times| / step time.

    Parents precede their children in the span list, so one pass assigns
    every span to the step it runs under.
    """
    owner = []
    step_total = subtree_self = 0.0
    for span, own in zip(spans, self_times(spans)):
        parent = span[3]
        inside = owner[parent] if parent >= 0 else False
        if span[0] == STEP and not inside:
            inside = True
            step_total += span[2] - span[1]
        owner.append(inside)
        if inside:
            subtree_self += own
    return abs(subtree_self - step_total) / step_total if step_total else 0.0
