"""Golden outputs of shortened runs of both shipped configs.

`make_golden.py` records them and measures each row's tolerance; its
docstring says how.  A mismatch means a change moved a forecast or a window
error by more than round-off of one ulp in the input would.
"""

from __future__ import annotations

import dataclasses

import pytest

import make_golden
import nnsse.bench
import nnsse.estimators
from nnsse.bench import resolve_warmup, run_experiment
from nnsse.runners import RunContext, build_runner

GOLDEN = make_golden.load_golden()


@pytest.mark.parametrize("case", list(make_golden.CASES))
def test_shipped_config_matches_its_golden_outputs(case):
    want_rows = GOLDEN["cases"][case]["rows"]
    names, changes = make_golden.compare_case(case, GOLDEN)
    assert names == list(want_rows)
    moved = []
    for name, (worst, rtol, failure, want_failure) in changes.items():
        assert failure == want_failure, name
        if not worst <= rtol:
            moved.append(f"{name}: change {worst:.3g} > rtol {rtol:.3g}")
    env = make_golden.environment()
    where = "" if env == GOLDEN["env"] else f" (recorded on {GOLDEN['env']}, running on {env})"
    assert not moved, f"{case}: {'; '.join(moved)}{where}"


def test_linear_rows_on_schedules_shared_from_another_seed_match_the_golden(monkeypatch):
    """Seed 2 runs first, so seed 1's UAM filters take every covariance and
    gain of their schedules from seed 2's chains; they must still give the
    golden seed-1 outputs bit for bit."""
    full = make_golden.case_config("stack_comparison")
    ctx = RunContext(full.horizon, full.make_trajectory(1).sample_period, 1)
    warmup = resolve_warmup(full, [build_runner(e.name, e.kind, e.params, ctx)
                                   for e in full.estimators])
    config = dataclasses.replace(full, seeds=[2, make_golden.SEED], warmup=warmup,
                                 estimators=[e for e in full.estimators
                                             if e.kind == "uam_lke"])
    calls, seed_starts = [], {}
    plain_step, plain_seed = nnsse.estimators.lke_step, nnsse.bench.run_single_seed

    def seed_run(cfg, seed, *args):
        seed_starts[seed] = len(calls)
        return plain_seed(cfg, seed, *args)

    monkeypatch.setattr(nnsse.estimators, "lke_step",
                        lambda *args: calls.append(1) or plain_step(*args))
    monkeypatch.setattr(nnsse.bench, "run_single_seed", seed_run)
    run = run_experiment(config).seed_runs[1]
    assert run.seed == make_golden.SEED and len(calls) == seed_starts[make_golden.SEED] > 0
    want_rows = GOLDEN["cases"]["stack_comparison"]["rows"]
    got_rows = make_golden.case_rows(config, run)
    assert len(got_rows) == 4
    for name, got in got_rows.items():
        want = want_rows[name]
        assert got["failure"] == want["failure"], name
        assert {k: v.hex() for k, v in got["windows"].items()} == want["windows"], name
        assert [v.hex() for v in got["forecasts"]] == want["forecasts"], name
