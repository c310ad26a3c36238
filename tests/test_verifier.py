import cmath
import json
import math
import os
import re
import subprocess
import sys

import pytest

import gr32485
import gr32485.contour as contour
import gr32485.quadrature as quadrature
import gr32485.representations as representations
import gr32485.verifier as verifier
from gr32485.cli import main
from gr32485.contour import hankel_exp_integral
from gr32485.quadrature import _MEMO, Estimate, QuadratureConfig, _once
from gr32485.series import TAIL_TOL, _u_quadrature, u_series
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
EPS = math.ulp(1.0)
# a check that always fails, for the runner and the exit code
OFF_PROBE = CheckSpec("off-probe", "fails", "none", "match", 1e-18, lambda ctx: (1.0, 1.5))


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


def test_iterator_selection_equals_its_list():
    # the selection is read once, so an iterator is not used up by the
    # unknown-id scan before any check runs
    listed = run_checks(["R1", "R12"])
    streamed = run_checks(iter(["R1", "R12"]))
    assert [_record_bits(r) for r in streamed.records] == [_record_bits(r) for r in listed.records]
    assert streamed.config_echo == listed.config_echo
    assert listed.config_echo.endswith(" only=R1,R12")


def test_unknown_id_raises():
    with pytest.raises(UnknownCheckError):
        run_checks(["R0", "bogus"])


def test_duplicate_selection_runs_once():
    report = run_checks(["constants", "constants"])
    assert len(report.records) == 1
    assert report.config_echo.endswith(" only=constants")


def test_repeated_ids_are_echoed_once_in_the_order_given(capsys):
    report = run_checks(["R1", "R0", "R1", "R0", "R1"])
    assert [r.id for r in report.records] == ["R0", "R1"]
    assert report.config_echo.endswith(" only=R1,R0")
    assert main(["--only", "R0,R0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["id"] for r in doc["records"]] == ["R0"]
    assert doc["config_echo"].endswith(" only=R0")


def test_records_keep_catalog_order():
    report = run_checks(list(reversed(FAST_SELECTION)))
    ordered = [cid for cid in catalog_ids() if cid in FAST_SELECTION]
    assert [r.id for r in report.records] == ordered


def test_full_suite_passes():
    report = run_checks()
    assert report.overall == "pass"
    assert len(report.records) == len(catalog_ids())
    assert all(r.status == "pass" for r in report.records)


def test_failing_check_does_not_stop_later_ones(monkeypatch):
    # a failing check between passing ones: every record must exist
    specs = tuple(spec for spec in verifier._CATALOG if spec.id in ("R1", "R4"))
    monkeypatch.setattr(verifier, "_CATALOG", (specs[0], OFF_PROBE, specs[1]))
    report = run_checks()
    assert [r.id for r in report.records] == ["R1", "off-probe", "R4"]
    assert [r.status for r in report.records] == ["pass", "fail", "pass"]
    assert report.overall == "fail"


def test_failures_say_why(monkeypatch):
    def diverging(ctx):
        raise ArithmeticError("R99 did not converge")

    def broken(ctx):
        return "1.0", 1.0

    def unconverged(ctx):
        return 1.0, Estimate(1.0, 0.5, 30, False)

    def both_converged(ctx):
        return Estimate(1.0, 0.0, 30, True), Estimate(1.0, 0.0, 45, True)

    def overflowing(ctx):
        # an infinite lhs with an infinite error bar would meet its derived
        # tolerance, inf <= inf; the engine raises instead
        return quadrature.integrate(lambda x: 1e308, quadrature.Interval(0.0, 1.0), ctx), 1.0

    def overflowing_total(ctx):
        # two finite panels of 0.96e308 each, whose total overflows
        return quadrature.integrate(lambda x: 0.8e308, quadrature.Interval(0.0, 2.4), ctx), 1.0

    specs = (
        CheckSpec("diverging", "raises ArithmeticError", "none", "match", 1.0, diverging),
        CheckSpec("broken", "raises TypeError", "none", "match", 1.0, broken),
        CheckSpec("fine", "passes", "none", "match", 1.0, lambda ctx: (1.0, 1.0)),
        CheckSpec("off", "fails", "none", "match", 1.0, lambda ctx: (3.0, 1.0)),
        CheckSpec("unconverged", "rhs did not converge", "none", "match", 1.0, unconverged),
        CheckSpec("both", "two estimates", "none", "match", None, both_converged),
        CheckSpec("nan-lhs", "NaN lhs", "none", "bound", 1.0, lambda ctx: (math.nan, 1.0)),
        CheckSpec("nan-rhs", "NaN rhs", "none", "bound", 1.0, lambda ctx: (0.5, math.nan)),
        CheckSpec("overflow", "an overflowing integral", "none", "match", None, overflowing),
        CheckSpec("overflow-total", "an overflowing total", "none", "match", None, overflowing_total),
        # a check must return two sides; the message is the same on every
        # Python, also where unpacking a tuple would count its items
        CheckSpec("one-side", "one side", "none", "match", None, lambda ctx: (Estimate(1.0, 0.0, 30, True),)),
        CheckSpec("three-sides", "three sides", "none", "match", None, lambda ctx: (1.0, 1.0, 1.0)),
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
        ("no-converge", "the GK15 sums overflow on [0.0, 0.5]"),
        ("no-converge", "the GK15 panels' total overflows"),
        ("no-converge", "not enough values to unpack (expected 2, got 1)"),
        ("no-converge", "too many values to unpack (expected 2)"),
    ]
    assert [r.evals for r in report.records[-2:]] == [0, 0]
    assert all(math.isnan(r.tolerance) for r in report.records[-2:])
    assert math.isnan(report.records[1].lhs)
    # the runner sums the cost of the Estimate sides; a None tolerance is
    # derived from their error bars, here 0, plus rounding
    assert [r.evals for r in report.records[2:6]] == [0, 0, 30, 75]
    assert report.records[5].tolerance == 0.0 + 0.0 + 4.0 * EPS * 1.0
    assert report.overall == "fail"

    doc = json.loads(render_json(report))
    assert [rec["reason"] for rec in doc["records"]] == [r.reason for r in report.records]
    rows = render_table(report).splitlines()[2:-3]
    assert rows[0].endswith("reason: R99 did not converge")
    assert rows[1].endswith("reason: TypeError: unsupported operand type(s) for -: 'str' and 'float'")
    assert "reason" not in rows[2] and "reason" not in rows[3]
    assert rows[4].endswith("reason: rhs did not converge")


def test_tolerance_from_claimed_error_bars(monkeypatch):
    # sides 1e-12 apart that each claim 1e-15 disagree, however small
    # the gap: a flat 1e-9 tolerance would have passed them
    def close(ctx):
        return Estimate(1.0, 1e-15, 15, True), Estimate(1.0 + 1e-12, 1e-15, 15, True)

    def broken(ctx):
        raise ValueError("no sides")

    specs = (
        CheckSpec("close", "two estimates", "none", "match", None, close),
        CheckSpec("exact", "two ulps apart", "none", "match", None, lambda ctx: (1.0, 1.0 + 2 * EPS)),
        CheckSpec("inexact", "1e-14 apart", "none", "match", None, lambda ctx: (1.0, 1.0 + 1e-14)),
        CheckSpec("broken", "raises", "none", "match", None, broken),
    )
    monkeypatch.setattr(verifier, "_CATALOG", specs)
    report = run_checks()
    assert [r.status for r in report.records] == ["fail", "pass", "fail", "no-converge"]
    assert report.records[0].tolerance == 1e-15 + 1e-15 + 4.0 * EPS * (1.0 + 1e-12)
    # float sides count as exact: only rounding is allowed
    assert report.records[2].tolerance == 4.0 * EPS * (1.0 + 1e-14)
    assert math.isnan(report.records[3].tolerance)
    assert json.loads(render_json(report))["records"][3]["tolerance"] is None
    # LHS, RHS, |DIFF| and TOL of the check that raised
    assert render_table(report).splitlines()[2 + 3].split()[1:5] == ["n/a"] * 4
    with pytest.raises(TypeError):
        run_checks(["close"], tol=1e-9)


def test_catalog_checks_at_achieved_accuracy():
    derived = {spec.id for spec in verifier._CATALOG if spec.tolerance is None}
    assert len(derived) == 22
    records = {r.id: r for r in run_checks().records}
    assert all(records[cid].tolerance < 1e-11 for cid in derived)
    # V5 counts the Hankel sums' error as well as the contours'
    contour_err = sum(hankel_exp_integral(t).error_estimate for t in verifier._HANKEL_T_GRID)
    v5 = records["V5-hankel"]
    assert v5.tolerance == contour_err + TAIL_TOL + 4.0 * EPS * v5.lhs


def test_unconverged_route_is_evaluated_once(monkeypatch):
    # with a tiny budget R0 does not converge; every check comparing against
    # it must reuse the failed result instead of recomputing it. The counter
    # sits below the run's memo, so it sees each computation, not each use.
    calls = []

    def counting(rep):
        def evaluate(cfg):
            calls.append(rep.id)
            return rep.evaluate(cfg)

        return rep._replace(evaluate=evaluate)

    reps = tuple(counting(rep) for rep in representations.REPRESENTATIONS)
    monkeypatch.setattr(representations, "REPRESENTATIONS", reps)
    report = run_checks(cfg=QuadratureConfig(max_evals=100))
    assert len(calls) == len(set(calls)) == 13
    assert report.records[0].reason == "lhs did not converge"


def test_unconverged_side_keeps_its_value_and_evals():
    # R1 converges on 100 evals and R0 does not: the record keeps both
    # values and their evals, and names the side that did not converge
    cfg = QuadratureConfig(max_evals=100)
    (rec,) = run_checks(["R1"], cfg).records
    r1, r0 = (representations.eval_representation(rid, cfg) for rid in ("R1", "R0"))
    assert r1.converged and not r0.converged
    assert (rec.lhs, rec.rhs, rec.evals) == (r1.value, r0.value, r1.evals + r0.evals)
    assert math.isfinite(rec.lhs) and math.isfinite(rec.rhs) and rec.evals > 0
    assert (rec.status, rec.reason) == ("no-converge", "rhs did not converge")


def test_record_names_both_unconverged_sides(monkeypatch):
    def neither(cfg):
        return Estimate(1.0, 0.5, 30, False), Estimate(1.0, 0.5, 45, False)

    probe = CheckSpec("neither", "two unconverged sides", "none", "match", None, neither)
    monkeypatch.setattr(verifier, "_CATALOG", (probe,))
    (rec,) = run_checks().records
    assert (rec.lhs, rec.rhs, rec.evals) == (1.0, 1.0, 75)
    assert (rec.status, rec.reason) == ("no-converge", "lhs and rhs did not converge")


def test_run_computes_shared_quantities_once(monkeypatch):
    # V8 takes V5's delta = 0.5 contours, H1-vs-J1 and H2-vs-J2 take R9's and
    # R10's parts, V0-V2 take R11's Delta-forms and lemma-decay takes V4's U(2)
    current = [None]
    quadratures = {}
    contours = []
    execute, adaptive, upper_half = verifier._execute, quadrature._adaptive, contour._upper_half

    def tracking(spec, ctx):
        current[0] = spec.id
        return execute(spec, ctx)

    def counting(pieces, cfg):
        quadratures[current[0]] = quadratures.get(current[0], 0) + 1
        return adaptive(pieces, cfg)

    def recording(values, delta, cfg):
        contours.append((current[0], delta))
        return upper_half(values, delta, cfg)

    monkeypatch.setattr(verifier, "_execute", tracking)
    monkeypatch.setattr(quadrature, "_adaptive", counting)
    monkeypatch.setattr(contour, "_upper_half", recording)
    assert run_checks().overall == "pass"
    assert sorted(d for cid, d in contours if cid == "V8-delta") == [0.25, 0.25, 1.0, 1.0]
    for cid in ("V0-kprime", "V1-bf25600", "V2-bf25639", "H1-vs-J1", "H2-vs-J2"):
        assert cid not in quadratures, cid
    # only U(10) and U(100) are lemma-decay's own
    assert quadratures["lemma-decay"] == 2


def test_run_memo_keeps_values_for_one_run(monkeypatch):
    calls = []

    @_once
    def flaky(x):
        calls.append(x)
        if len(calls) == 1:
            raise ArithmeticError("first call fails")
        return x

    probe = CheckSpec("probe", "memoized", "none", "match", 0.0, lambda ctx: (flaky(1.0), 1.0))
    monkeypatch.setattr(verifier, "_CATALOG", (probe,) * 3)
    # the check that raised cached nothing, so the second computes
    # again and the third takes its value
    assert [r.status for r in run_checks().records] == ["no-converge", "pass", "pass"]
    assert len(calls) == 2
    assert _MEMO.get() is None
    # outside a run, and in the next run, every call computes
    flaky(1.0)
    run_checks()
    assert len(calls) == 4

    class Stop(BaseException):
        pass

    def interrupted(ctx):
        raise Stop

    stop = CheckSpec("stop", "raises past the runner", "none", "match", 0.0, interrupted)
    monkeypatch.setattr(verifier, "_CATALOG", (stop,))
    with pytest.raises(Stop):
        run_checks()
    assert _MEMO.get() is None


def test_full_run_records_equal_single_check_runs():
    # sharing a quantity within a run changes no reported number
    for rec in run_checks().records:
        (alone,) = run_checks([rec.id]).records
        assert alone._replace(wall_time_ms=0) == rec._replace(wall_time_ms=0), rec.id


def _record_bits(rec):
    # every float as its hex digits, so equal means equal in every bit
    return tuple(v.hex() if isinstance(v, float) else v for v in rec._replace(wall_time_ms=0))


def _estimate_bits(est):
    value = complex(est.value)
    return value.real.hex(), value.imag.hex(), est.error_estimate.hex(), est.evals, est.converged


def _contour_panels(memo):
    """(part, delta, nodes) of every panel in a run memo's contour node
    tables at the catalog's deltas, 0.5 (V5, V6) and 0.25 and 1 (V8)."""
    token = _MEMO.set(memo)
    try:
        return {
            (name, delta, xs)
            for name in ("contour arc", "contour ray")
            for delta in (0.25, 0.5, 1.0)
            for xs in contour._node_table(name, delta)
        }
    finally:
        _MEMO.reset(token)


def _memo_after_each_check(monkeypatch):
    """The contour panels in the run memo after each check, by check id."""
    after = {}
    execute = verifier._execute

    def tracking(spec, ctx):
        try:
            return execute(spec, ctx)
        finally:
            after[spec.id] = _contour_panels(_MEMO.get())

    monkeypatch.setattr(verifier, "_execute", tracking)
    return after


def test_run_evaluates_each_contour_node_once(monkeypatch, built_panels):
    # the contour integrals at one delta read their nodes from one table
    # per run, and the next run starts from empty tables
    after = _memo_after_each_check(monkeypatch)
    counts = []
    for _ in range(2):
        built_panels.clear()
        after.clear()
        assert run_checks().overall == "pass"
        assert _MEMO.get() is None
        panels = set().union(*after.values())
        assert len(built_panels) == len(panels) > 0
        counts.append(len(built_panels))
    assert counts[0] == counts[1]


def test_node_tables_left_by_a_failed_check_stay_valid(monkeypatch, built_panels):
    # V5's first contour integrand raises at its 100th node, in its 7th
    # panel, after the tables at delta = 0.5 have taken that whole panel
    # and the ones before it. An entry is a function of (delta, panel)
    # alone, so V6 may read what the failed check left and still reports
    # its cold record
    after = _memo_after_each_check(monkeypatch)
    (cold,) = run_checks(["V6-residue"]).records
    cold_panels = after["V6-residue"]
    assert len(built_panels) == len(cold_panels)
    upper_half = contour._upper_half
    seen = [0]

    def failing(values, delta, cfg):
        def values_failing(nodes):
            seen[0] += len(nodes)
            if seen[0] - len(nodes) < 100 <= seen[0]:
                raise ArithmeticError("integrand failed on purpose")
            return values(nodes)

        return upper_half(values_failing, delta, cfg)

    monkeypatch.setattr(contour, "_upper_half", failing)
    built_panels.clear()
    v5, v6 = run_checks(["V5-hankel", "V6-residue"]).records
    assert (v5.status, v5.reason) == ("no-converge", "integrand failed on purpose")
    assert _record_bits(v6) == _record_bits(cold)
    # V5 filled 7 whole panels, the last holding the node whose integrand
    # raised, and V6 built only the panels of its own that V5 had not reached
    v5_panels = after["V5-hankel"]
    v6_panels = after["V6-residue"] - v5_panels
    assert len(v5_panels) == 7 == -(-100 // 15)
    assert len(built_panels) == len(v5_panels) + len(v6_panels)
    assert v6_panels <= cold_panels
    assert cold_panels - v6_panels == cold_panels & v5_panels != set()


def test_node_tables_key_each_panel_on_its_dyadic_centre(monkeypatch, built_panels):
    # each part bisects [0, 1], so a key is a panel's centre k/2^m with k
    # odd, which names the panel [(k - 1)/2^m, (k + 1)/2^m] alone; the
    # entry under it holds that panel's 15 nodes, so no two panels alias
    memos = []
    execute = verifier._execute

    def keeping(spec, cfg):
        memos.append(_MEMO.get())
        return execute(spec, cfg)

    monkeypatch.setattr(verifier, "_execute", keeping)
    assert run_checks().overall == "pass"
    (memo,) = {id(m): m for m in memos}.values()
    tables = [(args, table) for (fn, args, _), table in memo.items() if fn is contour._node_table.__wrapped__]
    assert {delta for (_, delta), _ in tables} == {0.25, 0.5, 1.0}
    keys = 0
    for (name, delta), table in tables:
        for key, nodes in table.items():
            k, den = key.as_integer_ratio()
            assert 0.0 < key < 1.0 and k % 2 == 1 and den & (den - 1) == 0, (name, delta, key)
            _, xs = quadrature._nodes((k - 1) / den, (k + 1) / den)
            assert xs[0] == key
            if name == "contour arc":
                zs = [delta * cmath.exp(contour._ARC * xi) for xi in xs]
            else:
                zs = [None if n is None else complex(-delta * n[0], delta) for n in quadrature._compact_nodes(-1.0, xs)]
            assert [z for z, _ in nodes] == [0j if z is None else z for z in zs], (name, delta, key)
            guarded = [i for i, node in enumerate(nodes) if node == (0j, 0j)]
            assert guarded == [i for i, z in enumerate(zs) if z is None], (name, delta, key)
            keys += 1
    # every entry written is still there, once
    assert keys == len(built_panels) > 0


def test_a_scaled_contour_weight_fails_the_hankel_and_residue_checks(monkeypatch):
    # every node weight q scaled by (1 + 1e-10) as its entry is stored; a
    # new entry is read back from its table, so every read sees the same
    # scaled value. The Hankel sums (V5) and the residues (V6) catch it.
    # V8 compares two deltas' integrals with each other alone, so it stays
    # blind to a scale common to all of them
    class Scaling(dict):
        def __setitem__(self, key, nodes):
            super().__setitem__(key, [(z, q * (1.0 + 1e-10)) for z, q in nodes])

    monkeypatch.setattr(contour, "_node_table", _once(lambda name, delta: Scaling()))
    report = run_checks()
    assert {r.id for r in report.records if r.status != "pass"} == {"V5-hankel", "V6-residue"}


def test_resolvent_in_a_run_equals_a_fresh_call(monkeypatch):
    # V6's ten resolvent integrals read V5's nodes within a full run, and
    # give the Estimates that a call outside any run computes
    resolvent = verifier.hankel_resolvent_integral
    inside = []

    def recording(*args, **kwargs):
        est = resolvent(*args, **kwargs)
        inside.append((args, kwargs, est))
        return est

    monkeypatch.setattr(verifier, "hankel_resolvent_integral", recording)
    assert run_checks().overall == "pass"
    assert len(inside) == len(verifier._RESIDUE_C) == 10
    for args, kwargs, est in inside:
        assert _estimate_bits(est) == _estimate_bits(resolvent(*args, **kwargs)), args


def test_lemma_checks_count_their_quadratures():
    report = run_checks(["V4-lemma", "lemma-decay"])
    pair = sum(u_series(t).evals + _u_quadrature(t).evals for t in verifier._LEMMA_T_GRID)
    decay = sum(_u_quadrature(t).evals for t in (2.0, 10.0, 100.0))
    assert [r.evals for r in report.records] == [pair, decay]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"selection": "R1"},
        {"selection": b"R1"},
        {"selection": [1]},
        {"selection": 5},
        {"cfg": None},
        {"cfg": (1e-12, 200_000)},
    ],
    ids=["str-selection", "bytes-selection", "int-selection", "scalar-selection", "none-cfg", "tuple-cfg"],
)
def test_run_checks_rejects_malformed_arguments(monkeypatch, kwargs):
    # a string selection would be read one character at a time, one that is
    # not iterable would fail in list() without naming the argument, ids
    # that are not strings would fail late in str.join, and a cfg that is
    # not a QuadratureConfig would run every check to an error; all are
    # rejected, naming the argument, before any check runs
    monkeypatch.setattr(verifier, "_execute", None)
    (name,) = kwargs
    with pytest.raises(TypeError, match=f"^{name} must be"):
        run_checks(**kwargs)


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


def test_cli_exit_codes(monkeypatch, capsys):
    assert main(["--only", "constants,landen"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out

    assert main(["--only", "nonsense"]) == 2
    assert "unknown check id" in capsys.readouterr().err

    monkeypatch.setattr(verifier, "_CATALOG", verifier._CATALOG + (OFF_PROBE,))
    assert main(["--only", "off-probe"]) == 1
    assert "overall: fail" in capsys.readouterr().out

    # a selection that names no id is a usage error, not the whole catalog
    for argv in (
        ["--only", ""],
        ["--only", ","],
        ["--only", " , "],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("verify: "), argv

    # tolerances come from the catalog, no check has a time budget and
    # every run uses the config of the committed report; the flags that
    # set them are gone
    for flag, value in (
        ("--series-tol", "1e-5"),
        ("--tol", "1e-9"),
        ("--timeout-secs", "nan"),
        ("--timeout-secs", "inf"),
        ("--timeout-secs", "0"),
        ("--max-evals", "14"),
        ("--max-evals", "29"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([flag, value, "--only", "R2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for cid in catalog_ids():
        assert cid in out


def test_cli_json_output(capsys):
    assert main(["--only", "constants", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][0]["id"] == "constants"


def test_cli_run_leaves_out_dataclasses_inspect_typing_and_shutil():
    # dataclasses pulls in inspect, ast, dis and tokenize, which cost a
    # verify process more than its checks; typing and shutil (with its
    # compression modules) serve nothing a report needs. -S keeps site
    # hooks from preloading modules, so sys.modules holds what a run loads.
    code = (
        "import sys, gr32485.cli; gr32485.cli.main(['--json']); "
        "sys.stderr.write(repr(sorted({'dataclasses', 'inspect', 'typing', 'shutil'} & set(sys.modules))))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gr32485.__file__))}
    err = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stderr
    assert err == "[]"


@pytest.mark.parametrize("argv, loaded", [([], []), (["--list"], []), (["--json"], ["json"])])
def test_cli_loads_json_only_to_render_it(argv, loaded):
    # render_json imports json itself, so a table or --list run never loads it
    code = (
        f"import sys, gr32485.cli; gr32485.cli.main({argv!r}); "
        "sys.stderr.write(repr(sorted({'json'} & set(sys.modules))))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gr32485.__file__))}
    err = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True).stderr
    assert err == repr(loaded)


def test_cli_help_ignores_columns(capsys, monkeypatch):
    # help is 78 columns wide whatever the terminal: no environment
    # variable is consulted
    outs = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert max(len(line) for line in outs[0].splitlines()) <= 78
