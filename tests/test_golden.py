"""Golden outputs of shortened runs of both shipped configs.

`make_golden.py` records them and measures each row's tolerance; its
docstring says how.  A mismatch means a change moved a forecast or a window
error by more than round-off of one ulp in the input would.
"""

from __future__ import annotations

import json

import pytest

import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))


def _decoded(row: dict) -> dict:
    return {"windows": {k: float.fromhex(v) for k, v in row["windows"].items()},
            "forecasts": [float.fromhex(v) for v in row["forecasts"]]}


@pytest.mark.parametrize("case", list(make_golden.CASES))
def test_shipped_config_matches_its_golden_outputs(case):
    want_rows = GOLDEN["cases"][case]["rows"]
    got_rows = make_golden.run_case(make_golden.case_config(case))
    assert list(got_rows) == list(want_rows)
    moved = []
    for name, want in want_rows.items():
        got = got_rows[name]
        assert got["failure"] == want["failure"], name
        assert list(got["windows"]) == list(want["windows"]), name
        prefix, rtol = want["compare_first"], want["rtol"]
        worst = make_golden.max_change(make_golden.compared_values(got, prefix),
                                       make_golden.compared_values(_decoded(want), prefix))
        if not worst <= rtol:
            moved.append(f"{name}: change {worst:.3g} > rtol {rtol:.3g}")
    env = make_golden.environment()
    where = "" if env == GOLDEN["env"] else f" (recorded on {GOLDEN['env']}, running on {env})"
    assert not moved, f"{case}: {'; '.join(moved)}{where}"
