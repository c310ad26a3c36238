import math
import sys
from fractions import Fraction

import pytest

import gr32485.series as series
from gr32485.contour import hankel_exp_integral, hankel_hyperbolic, hankel_resolvent_integral
from gr32485.quadrature import Interval, integrate
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
    # 24 Gauss nodes are exact through degree 47. Rounding each node v to a
    # float perturbs v^(2j) by up to 2j half-ulps, which sets the tolerance.
    nodes, weights = series._U_NODES, series._U_WEIGHTS
    assert len(nodes) == len(weights) == 24
    assert all(0.0 < v < 0.5 for v in nodes) and all(w > 0.0 for w in weights)
    assert abs(math.fsum(weights) - 0.5) <= 2.0**-53
    eps = sys.float_info.epsilon
    for j in range(24):
        exact = 0.5 ** (2 * j + 1) / (2 * j + 1)
        rule = math.fsum(w * v ** (2 * j) for v, w in zip(nodes, weights))
        assert abs(rule - exact) <= (j + 2) * eps * exact, j


def test_u_value_matches_u_integral():
    # across the rule's upper limit t = 50, where u_value hands over
    for t in (0.5, 2.0, 10.0, 49.99, 50.0, 50.01):
        assert u_value(t) == pytest.approx(u_integral(t), abs=1e-13), t


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


def test_hankel_series_guards():
    with pytest.raises(ValueError):
        hankel_series(0.0)
    with pytest.raises(OverflowError):
        hankel_series(700.0)


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
    res = integrate(
        lambda t: u_value(t) * math.exp(-t) / math.sqrt(t),
        Interval(0.0, math.inf, singular_lower=True),
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
    # 48 outer terms plus every term of the inner k-sums under them
    inner = sum(inner_k_sum(n).evals for n in range(series._OUTER_TERMS))
    assert double_series_I().evals == series._OUTER_TERMS + inner
    assert inner > 2000


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
