"""Acceptance suite: one check per numbered criterion, one printed
pass/fail line each, every tolerance pinned in the assertion itself."""

import math
import time

from gr32485.contour import hankel_exp_integral, hankel_resolvent_integral, nested_radical
from gr32485.elliptic import complete_K, complete_Pi, incomplete_F, landen_residual
from gr32485.quadrature import Interval, integrate
from gr32485.representations import (
    CONSTANTS,
    REPRESENTATIONS,
    constant_residuals,
    eval_representation,
)
from gr32485.series import (
    central_binomial_ratio,
    double_series_I,
    hankel_series,
    inner_k_sum,
    u_integral,
    u_series,
)
from gr32485.verifier import run_checks

HEADLINE = 0.666377


def _line(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_1_headline_value():
    t0 = time.perf_counter()
    res = eval_representation("R0")
    elapsed = time.perf_counter() - t0
    ok = abs(res.value - HEADLINE) <= 5e-7 and elapsed < 5.0
    _line(1, ok, f"R0 = {res.value:.12f} ({elapsed:.2f}s)")
    assert abs(res.value - HEADLINE) <= 5e-7
    assert elapsed < 5.0


def test_criterion_2_erratum_reproduction(rep_values):
    gap = abs(rep_values["R0"] - CONSTANTS.wrong_value)
    ok = 0.0249 <= gap <= 0.0253
    _line(2, ok, f"|R0 - pi/(2 sqrt 6)| = {gap:.6f}")
    assert 0.0249 <= gap <= 0.0253
    # the differ-style check must flip to FAIL if the two values were close
    from gr32485.verifier import _status

    assert _status("differ", 1e-3, 0.02) == "fail"
    assert _status("differ", gap, 0.02) == "pass"


def test_criterion_3_chain_consistency(rep_values):
    t0 = time.perf_counter()
    report = run_checks()
    suite_elapsed = time.perf_counter() - t0

    quad_ids = [rep.id for rep in REPRESENTATIONS if rep.id not in ("R2", "R3")]
    worst_pair = max(
        abs(rep_values[a] - rep_values[b]) for a in quad_ids for b in quad_ids
    )
    series_gap = max(
        abs(rep_values["R2"] - rep_values["R0"]), abs(rep_values["R3"] - rep_values["R0"])
    )
    ok = worst_pair < 1e-9 and series_gap < 1e-5 and suite_elapsed < 60.0
    _line(
        3,
        ok,
        f"max pair {worst_pair:.2e}, series gap {series_gap:.2e}, "
        f"suite {suite_elapsed:.1f}s ({report.overall})",
    )
    assert worst_pair < 1e-9
    assert series_gap < 1e-5
    assert suite_elapsed < 60.0


def test_criterion_4_closed_form(rep_values):
    k1 = 1.0 / math.sqrt(3.0)
    closed = (
        (math.sqrt(3.0) - 1.0) * complete_Pi(CONSTANTS.k, k1)
        - incomplete_F(CONSTANTS.alpha, k1)
    ) / math.sqrt(2.0)
    gap = abs(closed - rep_values["R0"])
    _line(4, gap < 1e-9, f"|R12 - R0| = {gap:.2e}")
    assert gap < 1e-9


def test_criterion_5_elliptic_oracle_suite():
    def x_form(k, n=0.0, upper=1.0):
        return integrate(
            lambda x: 1.0
            / ((1.0 - n * x * x) * math.sqrt((1.0 - x * x) * (1.0 - (k * x) ** 2))),
            Interval(0.0, upper, singular_upper=upper == 1.0),
        ).value

    worst = 0.0
    for i in range(10):
        k = 0.06 + 0.09 * i
        worst = max(worst, abs(complete_K(k) - x_form(k)))
        phi = 0.12 + 0.14 * i
        worst = max(
            worst, abs(incomplete_F(phi, k) - x_form(k, upper=math.sin(phi)))
        )
        n = 0.88 - 0.085 * i
        worst = max(worst, abs(complete_Pi(n, k) - x_form(k, n=n)))
    landen_worst = max(
        abs(landen_residual(k)) for k in (CONSTANTS.k, 0.5, 0.9)
    )
    ok = worst < 1e-11 and landen_worst < 1e-12
    _line(5, ok, f"oracle gap {worst:.2e}, landen {landen_worst:.2e}")
    assert worst < 1e-11
    assert landen_worst < 1e-12


def test_criterion_6_byrd_friedman():
    records = run_checks(["V0-kprime", "V1-bf25600", "V2-bf25639"]).records
    worst = max(r.abs_diff for r in records)
    _line(6, worst < 1e-10, f"worst identity residual {worst:.2e}")
    assert len(records) == 3
    assert worst < 1e-10


def test_criterion_7_contour_properties():
    series_gap = max(
        abs(hankel_exp_integral(t).value - hankel_series(t))
        for t in (0.5, 1.0, 2.0, 5.0)
    )
    residue_gap = 0.0
    for j in range(20):
        u = j / 19.0
        c = 16.0 / 3.0 * u * u * (1.0 - u) ** 2
        ref = (1.0 / nested_radical(complex(1.0 + c, 0.0))).real
        residue_gap = max(residue_gap, abs(hankel_resolvent_integral(c).value - ref))
    delta_gap = max(
        abs(hankel_exp_integral(t, d).value - hankel_exp_integral(t).value)
        for t in (1.0, 2.0)
        for d in (0.25, 1.0)
    )
    ok = series_gap <= 1e-8 and residue_gap <= 1e-9 and delta_gap <= 1e-10
    _line(
        7,
        ok,
        f"series {series_gap:.2e}, residue {residue_gap:.2e}, delta {delta_gap:.2e}",
    )
    assert series_gap <= 1e-8
    assert residue_gap <= 1e-9
    assert delta_gap <= 1e-10


def test_criterion_8_kernel_lemma_properties():
    pair_gap = max(
        abs(u_series(t).value - u_integral(t)) for t in (0.1, 0.5, 1.0, 2.0, 5.0)
    )
    positivity = all(0.0 < u_integral(t) <= 1.0 for t in (0.0, 0.5, 2.0, 10.0, 100.0))
    # Bound as stated: U(t) <= sqrt(3 pi)/(4 sqrt t). The constant
    # sqrt(3 pi)/4 is the exact t -> inf asymptote of sqrt(t) U(t) and is
    # approached from above, so this inequality is false at every finite t;
    # the attainable version carries the interval-symmetry factor 2:
    # U(t) <= sqrt(3 pi)/(2 sqrt t). Asserted as stated, not weakened.
    bound_ok = all(
        u_integral(t) <= math.sqrt(3.0 * math.pi) / (4.0 * math.sqrt(t))
        for t in (2.0, 10.0, 100.0)
    )
    detail = (
        f"series/integral {pair_gap:.2e}, positivity {positivity}, "
        f"stated decay bound holds: {bound_ok} "
        f"(e.g. sqrt(2) U(2) = {u_integral(2.0) * math.sqrt(2.0):.4f} "
        f"vs sqrt(3 pi)/4 = {math.sqrt(3.0 * math.pi) / 4.0:.4f})"
    )
    _line(8, pair_gap < 1e-11 and positivity and bound_ok, detail)
    assert pair_gap < 1e-11
    assert positivity
    assert bound_ok


def test_criterion_9_exact_constants():
    worst = max(abs(v) for v in constant_residuals().values())
    _line(9, worst <= 1e-14, f"worst residual {worst:.2e}")
    assert worst <= 1e-14


def test_criterion_10_double_series(rep_values):
    res = double_series_I()
    gap = abs(res.value - rep_values["R0"])

    partial = 0.0
    sign = 1.0
    history = []
    for n in range(40):
        partial += sign * central_binomial_ratio(n) * inner_k_sum(n).value
        history.append(partial)
        sign = -sign
    lo, hi = sorted((history[-2], history[-1]))
    bracketed = lo <= res.value <= hi
    ok = gap < 1e-5 and bracketed
    _line(10, ok, f"accelerated gap {gap:.2e}, bracketed {bracketed}")
    assert gap < 1e-5
    assert bracketed
