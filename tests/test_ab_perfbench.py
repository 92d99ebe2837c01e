"""`ab_perfbench.summarize` on synthetic pairs; no benchmark is run."""

from __future__ import annotations

import pytest

import ab_perfbench


def _pairs(name, parent, change):
    return [{"parent": {"metrics": {name: {"value": p}}},
             "change": {"metrics": {name: {"value": c}}}} for p, c in zip(parent, change)]


def _row(parent, change, better="lower", bound=0.25):
    spec = {"name": "run_s", "unit": "s", "better": better, "bound": bound}
    header, row = ab_perfbench.summarize([spec], _pairs("run_s", parent, change))
    assert header.split()[-2:] == ["no", "regression"]
    return row


TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]  # median 1.0
WIDE = [1.0, 2.0] * 5                                              # IQR 1, median 1.5


@pytest.mark.parametrize("parent, change, better, verdict", [
    (TIGHT, [v * 1.1 for v in TIGHT], "lower", "ok"),
    (TIGHT, [1.25] * 10, "lower", "ok"),                # worse by exactly the bound
    (TIGHT, [v * 1.4 for v in TIGHT], "lower", "worse"),
    (TIGHT, [v * 0.5 for v in TIGHT], "lower", "ok"),
    (WIDE, [1.4, 1.6] * 5, "lower", "unresolved"),
    (WIDE, [v * 3.0 for v in WIDE], "lower", "unresolved"),
    (WIDE, [0.9] * 10, "lower", "ok"),                  # every change run beats every parent run
    (WIDE, [2.1] * 10, "higher", "ok"),
    (TIGHT, [v * 0.7 for v in TIGHT], "higher", "worse"),
    (TIGHT, [v * 0.9 for v in TIGHT], "higher", "ok"),
], ids=["ok", "ok_at_bound", "worse", "faster", "unresolved", "unresolved_worse",
        "wide_but_all_beat", "higher_all_beat", "higher_worse", "higher_ok"])
def test_no_regression_verdict(parent, change, better, verdict):
    assert _row(parent, change, better).split()[-1] == verdict


def test_gain_rule_and_verdict_stand_side_by_side():
    row = _row(TIGHT, [v * 0.8 for v in TIGHT])
    assert row.split()[-5:] == ["-20.0%", "10/10", "met", "0.25", "ok"]
    row = _row(TIGHT, [v * 1.4 for v in TIGHT])
    assert row.split()[-6:] == ["+40.0%", "0/10", "not", "met", "0.25", "worse"]


def test_a_metric_no_pair_measured():
    spec = {"name": "step_us.lowdim_kalman", "unit": "us", "better": "lower", "bound": 0.25}
    lines = ab_perfbench.summarize([spec], _pairs("run_s", [1.0], [1.0]))
    assert lines[1] == f"{'step_us.lowdim_kalman':24s} not measured"
