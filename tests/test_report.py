"""The certificate's report against its committed copy, ``report.json``.

The copy is ``verify --json`` without each record's ``wall_time_ms``.
On Linux x86-64, the platform it was made on, ``run_checks()`` must
render to it exactly, on every supported Python; elsewhere libm may
move the last bits, so ids, statuses, kinds and evals must match and
every value must be within a few ulps. A change that moves a value
rewrites the copy (``python tests/test_report.py --write``) in the same
commit. The module needs no pytest: ``python -S tests/test_report.py``
runs the comparison before anything is installed.
"""

import json
import math
import platform
import sys
from pathlib import Path

from gr32485.verifier import render_json, run_checks

FIXTURE = Path(__file__).with_name("report.json")
_EXACT = sys.platform == "linux" and platform.machine() == "x86_64"


def render(report) -> str:
    doc = json.loads(render_json(report))
    for record in doc["records"]:
        del record["wall_time_ms"]
    return json.dumps(doc, indent=2) + "\n"


def _close(a, b, scale: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= 8.0 * math.ulp(scale)


def test_report_equals_its_committed_copy():
    got = render(run_checks())
    want = FIXTURE.read_text()
    if _EXACT:
        assert got == want
        return
    got, want = json.loads(got), json.loads(want)
    assert [r["id"] for r in got["records"]] == [r["id"] for r in want["records"]]
    assert {k: v for k, v in got.items() if k != "records"} == {k: v for k, v in want.items() if k != "records"}
    for g, w in zip(got["records"], want["records"]):
        values = ("lhs", "rhs", "abs_diff", "tolerance")
        assert {k: v for k, v in g.items() if k not in values} == {k: v for k, v in w.items() if k not in values}
        scale = max(abs(w["lhs"] or 0.0), abs(w["rhs"] or 0.0))
        for key in ("lhs", "rhs", "tolerance"):
            assert _close(g[key], w[key], abs(w[key] or 0.0)), (w["id"], key)
        assert _close(g["abs_diff"], w["abs_diff"], scale), (w["id"], "abs_diff")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        FIXTURE.write_text(render(run_checks()))
    else:
        test_report_equals_its_committed_copy()
