import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

import gr32485
import gr32485.verifier as verifier
from gr32485.cli import main
from gr32485.quadrature import Estimate, Interval, QuadratureConfig, integrate
from gr32485.series import _u_quadrature, u_series
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


def test_residue_offsets_cover_the_u_grid():
    # c(u) = (16/3) u^2 (1-u)^2 is symmetric under u -> 1-u, so the 10
    # offsets V6 integrates are every offset of the 20-point grid j/19
    offsets = verifier._RESIDUE_C
    assert len(set(offsets)) == len(offsets) == 10
    for u in (j / 19.0 for j in range(20)):
        c = 16.0 / 3.0 * u * u * (1.0 - u) ** 2
        assert min(abs(c - o) for o in offsets) <= 1e-16


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
        time.sleep(0.4)
        return 1.0, 1.0

    slow = CheckSpec("slow-probe", "sleeps", "none", "match", 1.0, sleepy)
    quick = CheckSpec("quick-probe", "instant", "none", "match", 1.0, lambda ctx: (1.0, 1.0))
    monkeypatch.setattr(verifier, "_CATALOG", (slow, quick))
    report = run_checks(None, timeout_secs=0.1)
    assert [r.id for r in report.records] == ["slow-probe", "quick-probe"]
    assert report.records[0].status == "no-converge"
    assert report.records[1].status == "pass"
    assert report.overall == "fail"
    # the record reports the time the check really took, and why it failed
    assert report.records[0].wall_time_ms >= 400
    assert report.records[0].reason == "timeout after 0.1 s"


def test_deadline_stops_quadrature(monkeypatch):
    def oscillating(ctx):
        cfg = QuadratureConfig(max_evals=10**8)
        res = integrate(lambda x: math.sin(1.0 / x), Interval(0.0, 1.0), cfg)
        return res, res.value

    slow = CheckSpec("sin-probe", "sin(1/x)", "none", "match", 1.0, oscillating)
    quick = CheckSpec("quick-probe", "instant", "none", "match", 1.0, lambda ctx: (1.0, 1.0))
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
        return "1.0", 1.0

    def unconverged(ctx):
        return 1.0, Estimate(1.0, 0.5, 30, False)

    def both_converged(ctx):
        return Estimate(1.0, 0.0, 30, True), Estimate(1.0, 0.0, 45, True)

    specs = (
        CheckSpec("diverging", "raises ArithmeticError", "none", "match", 1.0, diverging),
        CheckSpec("broken", "raises TypeError", "none", "match", 1.0, broken),
        CheckSpec("fine", "passes", "none", "match", 1.0, lambda ctx: (1.0, 1.0)),
        CheckSpec("off", "fails", "none", "match", 1.0, lambda ctx: (3.0, 1.0)),
        CheckSpec("unconverged", "rhs did not converge", "none", "match", 1.0, unconverged),
        CheckSpec("both", "two estimates", "none", "match", None, both_converged),
        CheckSpec("nan-lhs", "NaN lhs", "none", "bound", 1.0, lambda ctx: (math.nan, 1.0)),
        CheckSpec("nan-rhs", "NaN rhs", "none", "bound", 1.0, lambda ctx: (0.5, math.nan)),
    )
    monkeypatch.setattr(verifier, "_CATALOG", specs)
    report = run_checks()
    assert [(r.status, r.reason) for r in report.records] == [
        ("no-converge", "R99 did not converge"),
        ("error", "TypeError: unsupported operand type(s) for -: 'str' and 'float'"),
        ("pass", None),
        ("fail", None),
        ("no-converge", "rhs did not converge"),
        ("pass", None),
        ("no-converge", "the difference is NaN"),
        ("no-converge", "the difference is NaN"),
    ]
    assert math.isnan(report.records[1].lhs)
    # the runner sums the cost of the Estimate sides; a None tolerance is the run's tol
    assert [r.evals for r in report.records[2:6]] == [0, 0, 30, 75]
    assert report.records[5].tolerance == 1e-9
    assert report.overall == "fail"

    doc = json.loads(render_json(report))
    assert [rec["reason"] for rec in doc["records"]] == [r.reason for r in report.records]
    rows = render_table(report).splitlines()[2:-3]
    assert rows[0].endswith("reason: R99 did not converge")
    assert rows[1].endswith("reason: TypeError: unsupported operand type(s) for -: 'str' and 'float'")
    assert "reason" not in rows[2] and "reason" not in rows[3]
    assert rows[4].endswith("reason: rhs did not converge")


def test_unconverged_route_is_evaluated_once(monkeypatch):
    # with a tiny budget R0 does not converge; every check comparing against
    # it must reuse the failed result instead of recomputing it
    calls = []

    def counting(*args):
        calls.append(args[0])
        return evaluate(*args)

    evaluate = verifier.eval_representation
    monkeypatch.setattr(verifier, "eval_representation", counting)
    report = run_checks(cfg=QuadratureConfig(max_evals=100))
    assert len(calls) == len(set(calls)) == 13
    assert report.records[0].reason == "R0 did not converge"


def test_lemma_checks_count_their_quadratures():
    report = run_checks(["V4-lemma", "lemma-decay"])
    pair = sum(u_series(t).evals + _u_quadrature(t).evals for t in verifier._LEMMA_T_GRID)
    decay = sum(_u_quadrature(t).evals for t in (2.0, 10.0, 100.0))
    assert [r.evals for r in report.records] == [pair, decay]


@pytest.mark.parametrize("name", ["tol", "timeout_secs"])
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


# a record's keys in the JSON report, in CheckRecord field order
RECORD_KEYS = [
    "id",
    "description",
    "lhs",
    "rhs",
    "abs_diff",
    "tolerance",
    "status",
    "paper_anchor",
    "evals",
    "wall_time_ms",
    "kind",
    "reason",
]


def test_render_json_record_keys():
    doc = json.loads(render_json(run_checks(["constants"])))
    assert list(doc["records"][0]) == RECORD_KEYS
    assert list(verifier.CheckRecord._fields) == RECORD_KEYS


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
                rhs=math.inf,
                abs_diff=-math.inf,
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
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads(render_json(report), parse_constant=reject)
    rec = doc["records"][0]
    assert rec["lhs"] is None and rec["rhs"] is None and rec["abs_diff"] is None


def test_cli_exit_codes(capsys):
    assert main(["--only", "constants,landen"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out

    assert main(["--only", "nonsense"]) == 2
    assert "unknown check id" in capsys.readouterr().err

    # R3's Laplace form sits about 7e-15 from R0; R5 now matches R0 exactly
    assert main(["--only", "R3", "--tol", "1e-18"]) == 1
    assert "overall: fail" in capsys.readouterr().out

    assert main(["--tol", "-1"]) == 2

    # non-finite limits are usage errors, not a pass or a switched-off timeout
    for argv in (
        ["--tol", "inf", "--only", "R1"],
        ["--tol", "nan", "--only", "R1"],
        ["--timeout-secs", "nan", "--only", "constants"],
        ["--timeout-secs", "inf", "--only", "constants"],
        ["--timeout-secs", "0", "--only", "constants"],
        ["--max-evals", "14", "--only", "constants"],
        # a selection that names no id is a usage error, not the whole catalog
        ["--only", ""],
        ["--only", ","],
        ["--only", " , "],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("verify: "), argv

    # R2 and R3 are checked at --tol; the flag that loosened them is gone
    with pytest.raises(SystemExit) as exc:
        main(["--series-tol", "1e-5", "--only", "R2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --series-tol" in capsys.readouterr().err


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for cid in catalog_ids():
        assert cid in out


def test_cli_json_output(capsys):
    assert main(["--only", "constants", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][0]["id"] == "constants"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, which cost a
    # verify process more than its checks. -S keeps site hooks from
    # preloading modules, so sys.modules holds what the import needs.
    code = "import sys, gr32485.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gr32485.__file__))}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
