"""Series machinery: the kernel U(t), the Hankel sum S(t), and the
conditionally convergent double series for the target integral.

Definitions (all signs explicit, k! and factorial ratios folded into a
term recurrence so nothing overflows):

    U(t)  = sum_k (-1)^k/k! * 4^k * ((2k)!)^2/(4k+1)! * (4t/3)^k
          = int_0^1 exp(-(16/3) u^2 (1-u)^2 t) du
          = 2 int_0^(1/2) exp(-(16t/3) (1/4 - v^2)^2) dv      (v = u - 1/2)

    S(t)  = sum_n (-1)^n * binom(2n,n)/4^n * t^((n-1)/2) / Gamma((n+1)/2)

    I     = sum_n (-1)^n * binom(2n,n)/4^n * inner(n),
    inner(n) = sum_k (-1)^k/k! * (Gamma((n+1)/2+k)/Gamma((n+1)/2))
               * (16/3)^k * ((2k)!)^2/(4k+1)!

U(t) has three routes: the series ``u_series``, the adaptive quadrature
``u_integral``, and ``u_value``, a fixed 24-node Gauss-Legendre rule in
v on [0, 1/2]. The v-form integrand is entire, so the rule converges
geometrically (Trefethen 2008, SIAM Rev. 50:67) and is accurate to
rounding for t <= 50; ``u_value`` takes no larger t.

The outer n-sum converges only conditionally (terms ~ 1/n); inner(n) is
absolutely convergent with term ratio -> -1/3. The outer coefficients
form a moment sequence, so the Cohen-Rodriguez Villegas-Zagier
Chebyshev acceleration applies and converges geometrically.
"""

from __future__ import annotations

import math

from .quadrature import DEFAULT_CONFIG, Estimate, Interval, QuadratureConfig, _linear, _once, integrate

__all__ = [
    "TAIL_TOL",
    "u_series",
    "u_integral",
    "u_value",
    "U_RULE_ERROR",
    "hankel_series",
    "central_binomial_ratio",
    "inner_k_sum",
    "double_series_I",
]

_EPS = 2.220446049250313e-16

# a series that has not met its tail tolerance after this many terms
# reports non-convergence
MAX_TERMS = 500

# outer terms of the double series handed to the acceleration
_OUTER_TERMS = 48


# absolute tail tolerance of every series sum
TAIL_TOL = 1e-13


# (k, k + 1, ((2k+1)(2k+2))^2, (4k+2)(4k+3)(4k+4)(4k+5)) for each step k
# of u_series and inner_k_sum; both products, and k + 1 times the second,
# stay below 2^53 for k < MAX_TERMS, so every float product is exact
_INNER_STEPS = tuple(
    (
        k,
        float(k + 1),
        float(((2 * k + 1) * (2 * k + 2)) ** 2),
        float((4 * k + 2) * (4 * k + 3) * (4 * k + 4) * (4 * k + 5)),
    )
    for k in range(MAX_TERMS)
)


def u_series(t: float) -> Estimate:
    """U(t) by its alternating power series. The error bound is the first
    omitted term, once the terms decay, plus the roundoff floor
    2 * max_term * eps. The terms peak near k ~ t/3 and grow with t, so
    from t ~ 25 on the bound exceeds TAIL_TOL and the sum reports
    non-convergence."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"u_series: t must be finite and >= 0, got {t!r}")
    total = 0.0
    term = 1.0
    peak = 0.0
    for k, k1, num, den in _INNER_STEPS:
        total += term
        if abs(term) > peak:
            peak = abs(term)
        ratio = -4.0 * num * (4.0 * t / 3.0) / (k1 * den)
        nxt = term * ratio
        if abs(nxt) <= abs(term) and abs(nxt) <= 0.5 * TAIL_TOL:
            err = abs(nxt) + 2.0 * peak * _EPS
            return Estimate(total, err, k + 1, err <= TAIL_TOL)
        term = nxt
    return Estimate(total, abs(term) + 2.0 * peak * _EPS, MAX_TERMS, False)


@_once
def _u_quadrature(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """U(t) by quadrature of exp(-(16/3) u^2 (1-u)^2 t), with the engine's
    error estimate and evaluation count. The integrand is symmetric under
    u <-> 1-u, so this is twice the integral over [0, 1/2], with twice its
    error estimate."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"u_integral: t must be finite and >= 0, got {t!r}")

    def f(u: float) -> float:
        w = u * (1.0 - u)
        return math.exp(-16.0 / 3.0 * w * w * t)

    return _linear([(2.0, integrate(f, Interval(0.0, 0.5), cfg))])


def u_integral(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """The value of :func:`_u_quadrature`, twice the integral over [0, 1/2];
    raises ArithmeticError when it did not converge."""
    res = _u_quadrature(t, cfg)
    if not res.converged:
        raise ArithmeticError(f"u_integral({t}) did not converge")
    return res.value


_FIX = 1 << 120  # fixed-point unit of the rule's construction


def _legendre(n: int, x: int) -> tuple[int, int]:
    """(P_n(x), P_(n-1)(x)) by the three-term recurrence, in fixed point:
    x and the results are integers in units of 1/_FIX."""
    p_prev, p = _FIX, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p // _FIX - (k - 1) * p_prev) // k
    return p, p_prev


def _u_rule() -> tuple[tuple[float, float], ...]:
    """(weight, exponent -(16/3)(1/4 - v_i^2)^2) at each node v_i of the
    24-node Gauss-Legendre rule on v in [0, 1/2], whose weights sum to 1/2.

    Newton's method, with P_n' = n (P_(n-1) - x P_n)/(1 - x^2), finds the
    positive roots x of P_24 on [-1, 1] in fixed point; the others are -x.
    With the weight (1 - x^2)/(2 (24 P_23(x))^2) and, for v = (1 + x)/4,
    1/4 - v^2 = (1 - x)(3 + x)/16, each value is rounded to a float once,
    by Python's correctly rounded integer division. Built in floats, the
    weight of the root next to x = 1 (condition number ~200) came out
    hundreds of ulps off.
    """
    n, one = 24, _FIX
    pairs = []
    for i in range(1, n // 2 + 1):
        x = int(math.cos(math.pi * (i - 0.25) / (n + 0.5)) * one)
        for _ in range(100):
            p, p_prev = _legendre(n, x)
            dx = p * (one * one - x * x) // (n * (p_prev * one - x * p))
            x -= dx
            if abs(dx) < 1 << 30:  # after a step below 2^-90, x is exact to 2^-120
                break
        w = (one * one - x * x) / (2 * (n * _legendre(n, x)[1]) ** 2)
        pairs += [(w, -(((one - y) * (3 * one + y)) ** 2) / (48 * one**4)) for y in (x, -x)]
    return tuple(pairs)


_U_PAIRS = _u_rule()

# The rule matches U(t) to rounding up to here; beyond, the integrand
# narrows towards v = 1/2 and 24 nodes no longer resolve it.
_U_RULE_T_MAX = 50.0

# bound on |u_value(t) - U(t)| for 0 <= t <= _U_RULE_T_MAX (at most
# 5.2e-16 against mpmath on a 0.1-step grid)
U_RULE_ERROR = 1e-15


def u_value(t: float) -> float:
    """U(t) for 0 <= t <= 50 by the fixed 24-node Gauss-Legendre rule in
    v = u - 1/2 on [0, 1/2], within ``U_RULE_ERROR``."""
    if not 0.0 <= t <= _U_RULE_T_MAX:
        raise ValueError(f"u_value: t must be in [0, {_U_RULE_T_MAX:g}], got {t!r}")
    exp = math.exp
    return 2.0 * math.fsum([w * exp(c * t) for w, c in _U_PAIRS])


# (n + 1, 2n + 1, 2n + 2, (n + 1)/2) for each step n of hankel_series,
# each exact, so reading them gives the bits of computing them in place
_HANKEL_STEPS = tuple(
    (n + 1, float(2 * n + 1), float(2 * n + 2), 0.5 * (n + 1)) for n in range(MAX_TERMS)
)


def hankel_series(t: float) -> float:
    """S(t) by direct summation.

    Term magnitudes grow until n ~ 2t (peaking near exp(t)/(2 pi t)) and
    decrease beyond, so the alternating truncation bound is applied only
    once n >= 2t. The roundoff floor 2 * max_term * eps joins the tail
    estimate, and the sum stops once the two are at most
    max(TAIL_TOL, 4 eps |S|), its error bound. The relative part serves
    t below about 2.5e-5, where S(t) ~ 1/sqrt(pi t) exceeds
    TAIL_TOL/(4 eps) ~ 113 and the first term's floor alone passes
    TAIL_TOL. For large t the floor dominates |S| and the sum raises
    ArithmeticError instead of returning (the contour route takes over
    there).
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"hankel_series: t must be finite and > 0, got {t!r}")
    if t > 600.0:
        raise OverflowError("hankel_series: term peak exp(t)/(2 pi t) overflows")
    sqrt_t = math.sqrt(t)
    two_t = 2.0 * t
    b = 1.0 / math.sqrt(math.pi * t)  # n = 0 magnitude
    g = 1.0 / math.sqrt(math.pi)  # Gamma((n+2)/2)/Gamma((n+1)/2) at n = 0
    sign = 1.0
    total = 0.0
    peak = 0.0
    for m, odd, even, half_m in _HANKEL_STEPS:
        total += sign * b
        if b > peak:
            peak = b
        nxt = b * odd / even * sqrt_t / g
        g = half_m / g
        sign = -sign
        if m >= two_t and ((bound := nxt + 2.0 * peak * _EPS) <= TAIL_TOL or bound <= 4.0 * _EPS * abs(total)):
            return total
        b = nxt
    raise ArithmeticError(f"hankel_series({t}) did not converge")


def central_binomial_ratio(n: int) -> float:
    """binom(2n, n) / 4**n, correctly rounded."""
    if n < 0:
        raise ValueError("central_binomial_ratio: n must be nonnegative")
    return math.comb(2 * n, n) / 4**n


def inner_k_sum(n: int) -> Estimate:
    """The absolutely convergent k-sum inner(n) to TAIL_TOL/16, the
    tolerance the double series needs; geometric tail bound from the
    eventual term ratio < 1/2."""
    if not (n >= 0 and math.isfinite(n) and n == int(n)):
        raise ValueError(f"inner_k_sum: n must be an integer >= 0, got {n!r}")
    total = 0.0
    term = 1.0
    half = 0.5 * (n + 1)
    tail_tol = TAIL_TOL / 16.0
    for k, k1, num, den in _INNER_STEPS:
        total += term
        ratio = -(half + k) / k1 * (16.0 / 3.0) * num / den
        nxt = term * ratio
        # the test that fails on nearly every step goes first
        if abs(nxt) <= tail_tol and abs(ratio) <= 0.5:
            return Estimate(total, 2.0 * abs(nxt), k + 1, True)
        term = nxt
    return Estimate(total, 2.0 * abs(term), MAX_TERMS, False)


def _cvz(a: list[float]) -> float:
    """Chebyshev acceleration of sum_k (-1)^k a_k (Cohen, Rodriguez
    Villegas, Zagier 2000, Algorithm 1)."""
    n = len(a)
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * a[k]
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return s / d


def double_series_I() -> Estimate:
    """The iterated double series for the target integral I.

    The outer sum is only conditionally convergent, so the inner k-sums
    are evaluated first (at a tightened tolerance) and the outer
    alternating sum is accelerated; plain partial sums would need ~1/eps
    terms. The acceleration needs positive outer coefficients, which a
    moment sequence has; computed ones that are not raise ArithmeticError.
    """
    inner = [inner_k_sum(n) for n in range(_OUTER_TERMS)]
    coeffs = [central_binomial_ratio(n) * r.value for n, r in enumerate(inner)]
    if not all(v > 0.0 for v in coeffs):
        raise ArithmeticError(
            "double_series_I: an outer coefficient is not positive, so the "
            "Chebyshev acceleration does not apply"
        )
    value = _cvz(coeffs)
    consistency = abs(value - _cvz(coeffs[:-4]))
    tail = consistency + 2.0 * max(r.error_estimate for r in inner)
    converged = all(r.converged for r in inner) and tail <= TAIL_TOL
    return Estimate(value, tail, _OUTER_TERMS + sum(r.evals for r in inner), converged)
