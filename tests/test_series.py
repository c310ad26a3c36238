import math
import random
import sys
from fractions import Fraction

import pytest

import gr32485.representations as representations
import gr32485.series as series
import gr32485.verifier as verifier
from gr32485.contour import hankel_exp_integral, hankel_hyperbolic, hankel_resolvent_integral
from gr32485.quadrature import Interval, QuadratureConfig, integrate
from gr32485.series import (
    central_binomial_ratio,
    double_series_I,
    hankel_series,
    inner_k_sum,
    u_integral,
    u_series,
    u_value,
)

I_SIX_DIGITS = 0.666377


def u_term_exact(k: int, t: Fraction) -> Fraction:
    """Exact rational term of the U(t) series, the oracle for the float loop."""
    return (
        Fraction(-1) ** k
        / math.factorial(k)
        * 4**k
        * math.factorial(2 * k) ** 2
        / math.factorial(4 * k + 1)
        * (4 * t / 3) ** k
    )


def inner_term_exact(n: int, k: int) -> Fraction:
    """Exact rational term of inner(n); the gamma ratio at half-integer
    arguments is the rising product (n+1)/2 * ((n+1)/2 + 1) * ..."""
    rising = Fraction(1)
    for j in range(k):
        rising *= Fraction(n + 1, 2) + j
    return (
        Fraction(-1) ** k
        / math.factorial(k)
        * rising
        * Fraction(16, 3) ** k
        * math.factorial(2 * k) ** 2
        / math.factorial(4 * k + 1)
    )


def hankel_series_loop(t: float) -> float:
    """S(t) by summing its terms in order, each from the one before by the
    Gamma-ratio recurrence, until the first omitted term plus the rounding
    floor 2 eps max|term| is at most TAIL_TOL: a value reference for
    series.hankel_series that shares neither its coefficients nor its
    term counts."""
    sqrt_t = math.sqrt(t)
    b = 1.0 / math.sqrt(math.pi * t)
    g = 1.0 / math.sqrt(math.pi)
    sign, total, peak = 1.0, 0.0, 0.0
    for n in range(series.MAX_TERMS):
        total += sign * b
        peak = max(peak, b)
        nxt = b * (2 * n + 1) / (2 * n + 2) * sqrt_t / g
        g = 0.5 * (n + 1) / g
        sign = -sign
        if n + 1 >= 2.0 * t and nxt + 2.0 * peak * sys.float_info.epsilon <= series.TAIL_TOL:
            return total
        b = nxt
    raise ArithmeticError(t)


def inner_k_sum_loop(n: int) -> tuple[float, float, int]:
    """(value, error, terms) of inner(n) with the integer factors computed
    in the loop, the reference for the step table of series.inner_k_sum."""
    total, term, half = 0.0, 1.0, 0.5 * (n + 1)
    for k in range(series.MAX_TERMS):
        total += term
        ratio = (
            -(half + k)
            / (k + 1)
            * (16.0 / 3.0)
            * ((2 * k + 1) * (2 * k + 2)) ** 2
            / ((4 * k + 2) * (4 * k + 3) * (4 * k + 4) * (4 * k + 5))
        )
        nxt = term * ratio
        if abs(ratio) <= 0.5 and abs(nxt) <= series.TAIL_TOL / 16.0:
            return total, 2.0 * abs(nxt), k + 1
        term = nxt
    raise ArithmeticError(n)


def hankel_term(n: int, t: float) -> float:
    """Magnitude of the n-th term of S(t), straight from its definition."""
    return math.comb(2 * n, n) / 4**n * t ** ((n - 1) / 2) / math.gamma((n + 1) / 2)


def test_u_series_at_zero():
    res = u_series(0.0)
    assert res.converged
    assert res.value == 1.0


def test_u_series_k1_term_is_minus_16_over_90():
    assert u_term_exact(1, Fraction(1)) == Fraction(-16, 90)


def test_u_series_matches_exact_rational_sum():
    for t in (Fraction(1, 10), Fraction(1), Fraction(2)):
        oracle = float(sum(u_term_exact(k, t) for k in range(40)))
        res = u_series(float(t))
        assert res.converged
        # truncation is bounded by the reported tail estimate
        assert abs(res.value - oracle) <= res.error_estimate + 2e-14


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_u_series_equals_u_integral(t):
    res = u_series(t)
    assert res.converged
    assert abs(res.value - u_integral(t)) < 1e-11


@pytest.mark.parametrize("t", [5.0, 20.0, 30.0, 40.0, 60.0, 100.0])
def test_u_series_claim_covers_rounding(t):
    # the terms peak near 2.3e12 at t = 100, so rounding, not the tail,
    # sets the error there; the claim must cover it and say when it
    # exceeds the series tolerance
    res = u_series(t)
    assert abs(res.value - u_integral(t)) <= res.error_estimate
    assert res.converged == (t < 30.0)


def test_u_integral_basics():
    assert u_integral(0.0) == pytest.approx(1.0, abs=1e-13)
    t = 0.0
    while t <= 50.0:
        v = u_integral(t)
        assert 0.0 < v <= 1.0
        t += 3.7


def test_u_decay_bound():
    # U(t) <= sqrt(3 pi)/(2 sqrt(t)): Gaussian bound on each half interval
    for t in (2.0, 10.0, 100.0):
        assert u_integral(t) <= math.sqrt(3.0 * math.pi) / (2.0 * math.sqrt(t))


def test_u_rejects_negative():
    with pytest.raises(ValueError):
        u_series(-1.0)
    with pytest.raises(ValueError):
        u_integral(-0.5)
    with pytest.raises(ValueError):
        u_value(-0.5)


@pytest.mark.parametrize(
    "fn, arg, name",
    [
        (u_value, math.nan, "t"),
        (u_value, math.inf, "t"),
        (u_series, math.nan, "t"),
        (u_series, math.inf, "t"),
        (u_integral, math.nan, "t"),
        (u_integral, math.inf, "t"),
        (hankel_series, math.inf, "t"),
        (inner_k_sum, math.nan, "n"),
        (inner_k_sum, math.inf, "n"),
        (inner_k_sum, 2.5, "n"),
        (hankel_resolvent_integral, math.nan, "c"),
        (hankel_resolvent_integral, math.inf, "c"),
        (hankel_exp_integral, math.inf, "t"),
        (hankel_exp_integral, math.nan, "t"),
        (hankel_hyperbolic, math.inf, "t"),
    ],
)
def test_kernels_reject_nan_and_inf(fn, arg, name):
    # NaN passes an "x < 0" test; each kernel must name its argument
    # instead of returning NaN or failing inside its integrand
    with pytest.raises(ValueError, match=f"{name} must be"):
        fn(arg)


def test_u_rule_integrates_even_moments_exactly():
    # 24 Gauss nodes are exact through degree 47, so the rule integrates
    # s(v)^m, with s = 1/4 - v^2 = sqrt(-3c/16) read back from each exponent
    # c = -(16/3) s^2 without cancellation, exactly for m <= 23: all 24
    # even degrees. Rounding c, -3c and the square root leaves s within
    # an ulp, which puts s^m within about m ulps; that sets the tolerance.
    weights, exponents = zip(*series._U_PAIRS)
    assert len(weights) == len(exponents) == 24
    assert all(-1.0 / 3.0 < c < 0.0 for c in exponents) and all(w > 0.0 for w in weights)
    assert abs(math.fsum(weights) - 0.5) <= 2.0**-53
    eps = sys.float_info.epsilon
    quarters = [math.sqrt(-3.0 * c / 16.0) for c in exponents]
    for m in range(24):
        # int_0^(1/2) (1/4 - v^2)^m dv, the binomial expanded
        exact = sum(
            math.comb(m, i) * Fraction(1, 4) ** (m - i) * (-1) ** i / (2 ** (2 * i + 1) * (2 * i + 1))
            for i in range(m + 1)
        )
        rule = math.fsum(w * s**m for w, s in zip(weights, quarters))
        assert abs(rule - exact) <= (m + 2) * eps * exact, m


def test_u_value_matches_u_integral():
    # up to the rule's upper limit t = 50
    for t in (0.5, 2.0, 10.0, 49.99, 50.0):
        assert u_value(t) == pytest.approx(u_integral(t), abs=1e-13), t


def test_u_value_rejects_t_above_the_rule():
    # beyond t = 50 the 24 nodes no longer resolve U(t) to U_RULE_ERROR
    for t in (50.01, 60.0, 1e6):
        with pytest.raises(ValueError, match="t must be"):
            u_value(t)


def test_hankel_peak_magnitude():
    t = 4.0
    peak = max(hankel_term(n, t) for n in range(60))
    envelope = math.exp(t) / (2.0 * math.pi * t)
    assert envelope / 3.0 <= peak <= envelope * 3.0


@pytest.mark.parametrize("t", [6.0, 10.0, 20.0])
def test_hankel_term_monotonicity(t):
    rising_end = math.floor(2.0 * t - 8.0)
    for n in range(1, rising_end):
        assert hankel_term(n, t) <= hankel_term(n + 1, t) * (1 + 1e-12)
    for n in range(math.ceil(2.0 * t), 120):
        assert hankel_term(n, t) >= hankel_term(n + 1, t) * (1 - 1e-12)


# Bits of S(t) and of inner(n) as their loops compute them. Both kernels
# use only arithmetic and math.sqrt, which IEEE 754 rounds correctly, on
# coefficients built from integers, so the pins hold on any conforming
# platform, and a cheaper loop has to reproduce them exactly. S(t) reads
# its term count through pow, which is not correctly rounded, so a pinned
# t also lies off the term-count bounds.
_HANKEL_PINS = {
    0.1: "0x1.64636aa1471d5p+0",
    0.5: "0x1.f75c3c400ac09p-2",
    1.0: "0x1.353764c58bbebp-2",
    2.0: "0x1.740d0daf7518ep-3",
    5.0: "0x1.738d1e02f1f8bp-4",
    8.0: "0x1.02bcf2911b428p-4",
}


def _off_the_bounds(t: float) -> bool:
    """Whether t lies more than 1e-9 relative from every term-count bound of
    hankel_series and from its upper limit, where pow's last bit cannot
    move its term count."""
    return all(abs(t - b) > 1e-9 * b for b in (*series._HANKEL_T_BOUNDS, series._HANKEL_T_MAX))


@pytest.mark.parametrize("t", _HANKEL_PINS)
def test_hankel_series_bits_are_pinned(t):
    # the id names t alone, so a change that moves a pinned bit keeps it
    assert _off_the_bounds(t)
    assert hankel_series(t).hex() == _HANKEL_PINS[t]


def test_hankel_term_counts_meet_their_bounds():
    # N terms serve t up to the N-th bound, where the first omitted term
    # c_N t^((N-1)/2) reaches a quarter of TAIL_TOL, and N >= 2t + 1; the
    # bounds rise, and the last is the first to cover the upper limit
    bounds, rules = series._HANKEL_T_BOUNDS, series._HANKEL_RULES
    assert len(bounds) == len(rules)
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-2] < series._HANKEL_T_MAX <= bounds[-1]
    for i, (bound, rule) in enumerate(zip(bounds, rules)):
        n = i + 2
        assert rule == tuple(reversed(series._HANKEL_C[:n]))
        assert n >= 2.0 * bound + 1.0
        assert hankel_term(n, bound) == pytest.approx(0.25 * series.TAIL_TOL, rel=1e-9), n


def test_hankel_series_raises_above_its_rounding_bound():
    # the upper limit is where the largest term n >= 1 reaches
    # (3/4) TAIL_TOL/(2 eps), about 9.17; up to it the sum returns, and
    # past it the rounding floor would not fit and it raises
    t_max = series._HANKEL_T_MAX
    peak = max(hankel_term(n, t_max) for n in range(1, 60))
    assert 2.0 * sys.float_info.epsilon * peak == pytest.approx(0.75 * series.TAIL_TOL, rel=1e-9)
    assert 9.17 < t_max < 9.18
    for t in (9.0, t_max):
        assert math.isfinite(hankel_series(t))
    for t in (math.nextafter(t_max, math.inf), 9.5, 40.0, 700.0, 1e308):
        with pytest.raises(ArithmeticError, match="rounding floor") as info:
            hankel_series(t)
        assert type(info.value) is ArithmeticError


def test_catalog_t_lies_off_the_term_count_bounds(monkeypatch):
    # the CI report's bits of R3 and V5 stay the same on every platform
    # only if no t they take lies where pow's last bit could move N
    seen = []

    def recording(t):
        seen.append(t)
        return hankel_series(t)

    monkeypatch.setattr(representations, "hankel_series", recording)
    monkeypatch.setattr(verifier, "hankel_series", recording)
    for abs_tol in (1e-12, 1e-13, 1e-14, 1e-15, 1e-300):
        verifier.run_checks(["R3", "V5-hankel"], QuadratureConfig(abs_tol))
    assert len(set(seen)) >= 30
    assert [t for t in seen if not _off_the_bounds(t)] == []


_INNER_PINS = {
    0: ("0x1.d98b8d4fcbbd3p-1", "0x1.7ce5f336a0ddep-47", 26),
    1: ("0x1.b715db8d3193ep-1", "0x1.728c4ca7104efp-47", 28),
    10: ("0x1.f1f1144f13aa2p-2", "0x1.e6c6c9da79e06p-48", 40),
    47: ("0x1.756ef648c6f4cp-3", "0x1.227b9e62e303bp-47", 74),
}


@pytest.mark.parametrize("n, pin", _INNER_PINS.items())
def test_inner_k_sum_bits_are_pinned(n, pin):
    res = inner_k_sum(n)
    assert (res.value.hex(), res.error_estimate.hex(), res.evals) == pin
    assert res.converged


def test_sums_equal_their_loop_forms():
    # the loop form of S(t) sums the same series another way, each within
    # TAIL_TOL, so the two agree within twice that; inner(n)'s step table
    # reproduces its loop bit for bit
    rng = random.Random(20181015)
    for t in [rng.uniform(0.05, 8.0) for _ in range(300)] + [8.0]:
        assert abs(hankel_series(t) - hankel_series_loop(t)) <= 2.0 * series.TAIL_TOL, t
    for n in range(200):
        res = inner_k_sum(n)
        assert (res.value, res.error_estimate, res.evals) == inner_k_sum_loop(n), n


def test_hankel_series_small_t_floor_is_relative():
    # below t ~ 6.3e-6 the first term's roundoff floor exceeds TAIL_TOL, so
    # the loop form, held to TAIL_TOL, runs out of terms; the sum holds
    # 4 eps |S| there. Its terms past the first two, 0.42 sqrt(t) - 0.31 t
    # + ..., sum to less than sqrt(t)/2
    for t in (5e-324, 1e-300, 1e-9, 1e-6, 6e-6):
        with pytest.raises(ArithmeticError):
            hankel_series_loop(t)
        first_two = 1.0 / math.sqrt(math.pi) / math.sqrt(t) - 0.5
        assert abs(hankel_series(t) - first_two) <= 0.5 * math.sqrt(t) + 8.0 * sys.float_info.epsilon * first_two
    # from t ~ 2.5e-5 on the relative bound is below TAIL_TOL: both sums
    # return, within TAIL_TOL each, up to the loop form's own limit
    rng = random.Random(20181021)
    grid = [rng.uniform(3e-5, 0.05) for _ in range(200)] + [0.25 * k for k in range(1, 37)]
    for t in grid:
        assert abs(hankel_series(t) - hankel_series_loop(t)) <= 2.0 * series.TAIL_TOL, t


def test_hankel_series_guards():
    # no term is formed before the upper limit is checked, so nothing
    # overflows at any finite t: past the limit the sum says why it refuses
    with pytest.raises(ValueError):
        hankel_series(0.0)
    with pytest.raises(ArithmeticError, match="rounding floor") as info:
        hankel_series(700.0)
    assert type(info.value) is ArithmeticError


def test_hankel_series_nonconvergence_for_large_t():
    # at t = 40 the roundoff floor exp(t)*eps sits far above TAIL_TOL
    with pytest.raises(ArithmeticError):
        hankel_series(40.0)


def test_inner_first_terms():
    assert inner_term_exact(0, 0) == 1
    assert inner_term_exact(0, 1) == Fraction(-4, 45)


def test_inner_sum_matches_exact_rational():
    for n in (0, 1, 5):
        oracle = float(sum(inner_term_exact(n, k) for k in range(60)))
        res = inner_k_sum(n)
        assert res.converged
        assert res.value == pytest.approx(oracle, abs=1e-13)


def test_inner_sum_zero_against_quadrature_oracle():
    # u_value stops at t = 50; the dropped tail is below
    # exp(-50)/sqrt(50) ~ 3e-23, far under the 1e-9 bound
    res = integrate(
        lambda t: u_value(t) * math.exp(-t) / math.sqrt(t),
        Interval(0.0, 50.0, singular_lower=True),
    )
    assert res.converged
    oracle = res.value / math.gamma(0.5)
    assert inner_k_sum(0).value == pytest.approx(oracle, abs=1e-9)


def test_inner_sum_ratio_eventually_below_half():
    for n in range(0, 41, 5):
        half = 0.5 * (n + 1)
        started = None
        for k in range(200):
            ratio = (
                (half + k)
                / (k + 1)
                * (16.0 / 3.0)
                * ((2 * k + 1) * (2 * k + 2)) ** 2
                / ((4 * k + 2) * (4 * k + 3) * (4 * k + 4) * (4 * k + 5))
            )
            if started is None and ratio < 0.5:
                started = k
            if started is not None:
                assert ratio < 0.5
        assert started is not None and started < 60


def test_double_series_outer_term_zero():
    # binom(0,0)/4^0 = 1, so the n = 0 outer term is inner(0) itself
    assert central_binomial_ratio(0) * inner_k_sum(0).value == inner_k_sum(0).value


def test_double_series_value():
    res = double_series_I()
    assert res.converged
    assert res.value == pytest.approx(I_SIX_DIGITS, abs=1e-5)


def test_double_series_evals_count_every_term():
    # 24 outer terms plus every term of the inner k-sums under them
    inner = sum(inner_k_sum(n).evals for n in range(series._OUTER_TERMS))
    assert double_series_I().evals == series._OUTER_TERMS + inner
    assert inner == 982


def test_outer_terms_meet_the_acceleration_bound():
    # Cohen, Rodriguez Villegas and Zagier's Prop. 1 bounds the truncation
    # by 2S/(3 + sqrt 8)^N; N is the fewest outer terms that put it at or
    # below 2^-60 S
    n = series._OUTER_TERMS
    rate = 3.0 + math.sqrt(8.0)
    assert 2.0 / rate**n <= 2.0**-60 < 2.0 / rate ** (n - 1)


def test_double_series_bracketed_by_partial_sums():
    accelerated = double_series_I().value
    partial = 0.0
    sign = 1.0
    history = []
    for n in range(44):
        partial += sign * central_binomial_ratio(n) * inner_k_sum(n).value
        history.append(partial)
        sign = -sign
    for n in range(20, 43):
        lo, hi = sorted((history[n], history[n + 1]))
        assert lo <= accelerated <= hi


def test_double_series_needs_positive_coefficients(monkeypatch):
    # the Chebyshev acceleration is only valid for a positive outer sequence
    monkeypatch.setattr(series, "central_binomial_ratio", lambda n: -1.0 if n == 7 else 1.0)
    with pytest.raises(ArithmeticError, match="not positive"):
        double_series_I()


def test_central_binomial_examples():
    assert central_binomial_ratio(0) == 1.0
    assert central_binomial_ratio(1) == 0.5


def test_central_binomial_against_exact_rational():
    for n in (2, 7, 30, 64):
        exact = Fraction(math.comb(2 * n, n), 4**n)
        assert central_binomial_ratio(n) == pytest.approx(float(exact), rel=1e-14)


def test_central_binomial_asymptote_ratio():
    for n in range(30, 201, 10):
        ratio = central_binomial_ratio(n) * math.sqrt(math.pi * n)
        assert 0.9 < ratio < 1.0
