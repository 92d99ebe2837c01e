"""Golden outputs of shortened runs of both shipped configs.

`make_golden.py` records them and measures each row's tolerance; its
docstring says how.  A mismatch means a change moved a forecast or a window
error by more than round-off of one ulp in the input would.
"""

from __future__ import annotations

import pytest

import make_golden

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
