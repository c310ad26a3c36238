import json
import math
import re
import time

import pytest

import gr32485.verifier as verifier
from gr32485.cli import main
from gr32485.quadrature import Interval, QuadratureConfig, integrate
from gr32485.verifier import (
    CheckSpec,
    Report,
    UnknownCheckError,
    catalog_ids,
    render_json,
    render_table,
    run_checks,
)

FAST_SELECTION = ["constants", "V7-threshold", "landen"]


def test_catalog_covers_all_representations():
    ids = catalog_ids()
    for rid in ("R0", "R12", "V2-bf25639", "landen", "constants"):
        assert rid in ids


def test_selection_discrepancy_record():
    report = run_checks(["R0-vs-wrong"])
    assert len(report.records) == 1
    rec = report.records[0]
    assert rec.kind == "differ"
    assert rec.status == "pass"
    assert rec.abs_diff == pytest.approx(0.025102, abs=2e-4)
    assert report.overall == "pass"


def test_selection_pair_shares_baseline():
    report = run_checks(["R0", "R12"])
    assert [r.id for r in report.records] == ["R0", "R12"]
    r0, r12 = report.records
    assert r12.rhs == r0.lhs
    assert abs(r12.lhs - r0.lhs) < 1e-9
    assert report.overall == "pass"


def test_unknown_id_raises():
    with pytest.raises(UnknownCheckError):
        run_checks(["R0", "bogus"])


def test_duplicate_selection_runs_once():
    report = run_checks(["constants", "constants"])
    assert len(report.records) == 1


def test_records_keep_catalog_order():
    report = run_checks(list(reversed(FAST_SELECTION)))
    ordered = [cid for cid in catalog_ids() if cid in FAST_SELECTION]
    assert [r.id for r in report.records] == ordered


def test_full_suite_passes():
    report = run_checks()
    assert report.overall == "pass"
    assert len(report.records) == len(catalog_ids())
    assert all(r.status == "pass" for r in report.records)


def test_failing_check_does_not_stop_later_ones():
    # an impossible tolerance forces fails, but every record must exist
    report = run_checks(["R1", "R4", "R5"], tol=1e-18)
    assert [r.id for r in report.records] == ["R1", "R4", "R5"]
    assert report.overall == "fail"
    assert all(r.status in ("pass", "fail") for r in report.records)


def test_timeout_marks_no_converge(monkeypatch):
    def sleepy(ctx):
        time.sleep(1.0)
        return 1.0, 1.0, 0

    slow = CheckSpec("slow-probe", "sleeps", "none", "match", "fixed", 1.0, sleepy)
    quick = CheckSpec("quick-probe", "instant", "none", "match", "fixed", 1.0, lambda ctx: (1.0, 1.0, 0))
    monkeypatch.setattr(verifier, "_CATALOG", (slow, quick))
    report = run_checks(None, timeout_secs=0.2)
    assert [r.id for r in report.records] == ["slow-probe", "quick-probe"]
    assert report.records[0].status == "no-converge"
    assert report.records[1].status == "pass"
    assert report.overall == "fail"
    # the record reports the time the check really took, and why it failed
    assert report.records[0].wall_time_ms >= 1000
    assert report.records[0].reason == "timeout after 0.2 s"


def test_deadline_stops_quadrature(monkeypatch):
    def oscillating(ctx):
        cfg = QuadratureConfig(max_evals=10**8)
        res = integrate(lambda x: math.sin(1.0 / x), Interval(0.0, 1.0), cfg)
        return res.value, res.value, res.evals

    slow = CheckSpec("sin-probe", "sin(1/x)", "none", "match", "fixed", 1.0, oscillating)
    quick = CheckSpec("quick-probe", "instant", "none", "match", "fixed", 1.0, lambda ctx: (1.0, 1.0, 0))
    monkeypatch.setattr(verifier, "_CATALOG", (slow, quick))
    t0 = time.monotonic()
    report = run_checks(None, timeout_secs=0.2)
    assert time.monotonic() - t0 < 1.0
    assert [r.status for r in report.records] == ["no-converge", "pass"]
    assert report.records[0].reason == "timeout after 0.2 s"
    # the deadline belongs to the check that set it
    assert integrate(math.exp, Interval(0.0, 1.0)).converged


def test_failures_say_why(monkeypatch):
    def diverging(ctx):
        raise ArithmeticError("R99 did not converge")

    def broken(ctx):
        return "1.0", 1.0, 0

    specs = (
        CheckSpec("diverging", "raises ArithmeticError", "none", "match", "fixed", 1.0, diverging),
        CheckSpec("broken", "raises TypeError", "none", "match", "fixed", 1.0, broken),
        CheckSpec("fine", "passes", "none", "match", "fixed", 1.0, lambda ctx: (1.0, 1.0, 0)),
        CheckSpec("off", "fails", "none", "match", "fixed", 1.0, lambda ctx: (3.0, 1.0, 0)),
    )
    monkeypatch.setattr(verifier, "_CATALOG", specs)
    report = run_checks()
    assert [(r.status, r.reason) for r in report.records] == [
        ("no-converge", "R99 did not converge"),
        ("error", "TypeError: unsupported operand type(s) for -: 'str' and 'float'"),
        ("pass", None),
        ("fail", None),
    ]
    assert math.isnan(report.records[1].lhs)
    assert report.overall == "fail"

    doc = json.loads(render_json(report))
    assert [rec["reason"] for rec in doc["records"]] == [r.reason for r in report.records]
    rows = render_table(report).splitlines()[2:-3]
    assert rows[0].endswith("reason: R99 did not converge")
    assert rows[1].endswith("reason: TypeError: unsupported operand type(s) for -: 'str' and 'float'")
    assert "reason" not in rows[2] and "reason" not in rows[3]


@pytest.mark.parametrize("name", ["tol", "series_tol", "timeout_secs"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_run_checks_rejects_bad_limits(name, value):
    with pytest.raises(ValueError, match=name):
        run_checks(["constants"], **{name: value})


def test_render_table_shapes():
    empty = Report(records=[], tool_version="0.0", config_echo="-", overall="pass")
    text = render_table(empty)
    assert "ID" in text and "ANCHOR" in text

    report = run_checks(["constants"])
    text = render_table(report)
    rows = [line for line in text.splitlines() if line.startswith("constants")]
    assert len(rows) == 1
    assert "pass" in rows[0]


def test_render_table_full_row_count():
    report = run_checks()
    body = render_table(report).splitlines()[2:-3]  # strip header and footer
    assert len(body) == len(catalog_ids())


def test_render_json_empty_report():
    empty = Report(records=[], tool_version="0.0", config_echo="-", overall="pass")
    doc = json.loads(render_json(empty))
    assert doc["records"] == []
    assert doc["overall"] == "pass"


def test_render_json_round_trip():
    report = run_checks(FAST_SELECTION)
    doc = json.loads(render_json(report))
    assert doc["overall"] == "pass"
    assert doc["tool_version"] == report.tool_version
    assert len(doc["records"]) == len(report.records)
    for rec, parsed in zip(report.records, doc["records"]):
        assert parsed["id"] == rec.id
        assert float(parsed["lhs"]) == pytest.approx(rec.lhs, rel=0, abs=0)
        assert float(parsed["tolerance"]) == rec.tolerance
        assert parsed["status"] == rec.status
        assert parsed["paper_anchor"] == rec.paper_anchor


def test_json_deterministic_up_to_wall_times():
    strip = lambda s: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', s)
    a = render_json(run_checks(FAST_SELECTION))
    b = render_json(run_checks(FAST_SELECTION))
    assert strip(a) == strip(b)


def test_nan_serializes_as_null():
    report = Report(
        records=[
            verifier.CheckRecord(
                id="x",
                description="d",
                lhs=math.nan,
                rhs=math.nan,
                abs_diff=math.nan,
                tolerance=1.0,
                status="no-converge",
                paper_anchor="none",
                evals=0,
                wall_time_ms=0,
            )
        ],
        tool_version="0.0",
        config_echo="-",
        overall="fail",
    )
    doc = json.loads(render_json(report))
    assert doc["records"][0]["lhs"] is None


def test_cli_exit_codes(capsys):
    assert main(["--only", "constants,landen"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out

    assert main(["--only", "nonsense"]) == 2
    assert "unknown check id" in capsys.readouterr().err

    assert main(["--only", "R5", "--tol", "1e-18"]) == 1
    assert "overall: fail" in capsys.readouterr().out

    assert main(["--tol", "-1"]) == 2

    # non-finite limits are usage errors, not a pass or a switched-off timeout
    for argv in (
        ["--tol", "inf", "--only", "R1"],
        ["--tol", "nan", "--only", "R1"],
        ["--series-tol", "inf", "--only", "R2"],
        ["--timeout-secs", "nan", "--only", "constants"],
        ["--timeout-secs", "inf", "--only", "constants"],
        ["--timeout-secs", "0", "--only", "constants"],
        ["--max-evals", "14", "--only", "constants"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("verify: "), argv


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for cid in catalog_ids():
        assert cid in out


def test_cli_json_output(capsys):
    assert main(["--only", "constants", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][0]["id"] == "constants"
