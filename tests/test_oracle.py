"""High-precision oracle checks with mpmath (a test-only dependency)."""

import functools
import math
import random
import sys

import pytest

import gr32485.series as series
from gr32485.contour import HYPERBOLIC_ERROR, hankel_exp_integral, hankel_hyperbolic, hankel_resolvent_integral
from gr32485.elliptic import carlson_rf, carlson_rj, complete_K, complete_Pi
from gr32485.quadrature import integrate
from gr32485.representations import (
    DELTA_FORMS,
    h1_integral,
    h2_integral,
    j1_integral,
    j2_integral,
)
from gr32485.series import TAIL_TOL, _u_quadrature, hankel_series, u_series, u_value

mpmath = pytest.importorskip("mpmath")


def s_reference(t: float) -> float:
    """S(t), the inverse Laplace transform of 1/sqrt(p + sqrt(p)), to 30 digits."""
    with mpmath.workdps(30):
        ref = mpmath.invertlaplace(lambda p: 1 / mpmath.sqrt(p + mpmath.sqrt(p)), t, method="talbot")
    return float(ref)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 8.0, 10.0, 20.0, 30.0, 50.0])
def test_hyperbolic_against_invertlaplace(t):
    assert abs(hankel_hyperbolic(t) - s_reference(t)) <= 1e-12


def test_carlson_rf_against_elliprf():
    # relative error in units of machine epsilon, the ulp of 1.0
    rng = random.Random(20180517)
    worst = 0.0
    for _ in range(300):
        x, y, z = (rng.uniform(0.01, 3.0) for _ in range(3))
        ref = mpmath.elliprf(x, y, z)
        worst = max(worst, float(abs(carlson_rf(x, y, z) - ref) / ref) / sys.float_info.epsilon)
    assert worst <= 4.0


def rj_far_above(y: float, z: float, p: float):
    """R_J(0, y, z, p) for p far above y and z, as 3 R_F(0, y, z)/p -
    3 pi/(2 p^(3/2)) to 30 digits, and the bound 6 sqrt((y + z)/2)/p^2 on
    what that leaves out.

    In R_J = (3/2) int_0^inf dt / ((t + p) sqrt(t (t + y) (t + z))), write
    1/(t + p) = 1/p - t/(p (t + p)). The first part gives 3 R_F(0, y, z)/p
    and the second, with sqrt((t + y)(t + z)) taken as t, -3 pi/(2 p^(3/2)).
    As t <= sqrt((t + y)(t + z)) <= t + m, m = (y + z)/2, what that leaves
    out lies between 0 and (3/(2p)) int_0^inf m dt / (sqrt(t) (t + p) (t + m))
    <= (3 pi/2) sqrt(m)/p^2."""
    with mpmath.workdps(30):
        y, z, p = mpmath.mpf(y), mpmath.mpf(z), mpmath.mpf(p)
        value = 3 * mpmath.elliprf(0, y, z) / p - 3 * mpmath.pi / (2 * p * mpmath.sqrt(p))
        return value, 6 * mpmath.sqrt((y + z) / 2) / p**2


def test_carlson_rj_against_elliprj():
    # seeded points, then p = 10**e far above the other arguments, where
    # duplication runs for up to about 500 steps
    rng = random.Random(20180518)
    points = [tuple(rng.uniform(0.01, 3.0) for _ in range(4)) for _ in range(300)]
    points += [(0.0, 0.75, 1.0, 10.0**e) for e in range(301)]
    # tiny arguments, which carlson_rj scales up by a power of 4
    points += [(0.0, 0.75e-150, 1e-150, 10.0**e * 1e-150) for e in (0, 50, 100)]
    worst = 0.0
    for x, y, z, p in points:
        if x == 0.0 and p >= 1e20 * max(y, z):
            # elliprj's cost grows with p / max(y, z); the expansion's
            # remainder is below 1e-20 of R_J here
            ref = rj_far_above(y, z, p)[0]
        else:
            ref = mpmath.elliprj(x, y, z, p)
        worst = max(worst, float(abs(carlson_rj(x, y, z, p) - ref) / ref) / sys.float_info.epsilon)
    assert worst <= 8.0


def test_rj_expansion_against_elliprj():
    # elliprj exceeds the expansion by at most its remainder bound, where
    # test_carlson_rj_against_elliprj starts to use it
    for e in range(20, 26):
        p = 10.0**e
        value, bound = rj_far_above(0.75, 1.0, p)
        with mpmath.workdps(40):
            remainder = mpmath.elliprj(0, 0.75, 1.0, p) - value
        assert 0 <= remainder <= bound, e


def test_carlson_rj_far_below_its_arguments():
    # p << min(x, y, z) drives e = (p - x)(p - y)(p - z) / d^2 to -1, where
    # 1 + e cancels; elliprj itself loses about log10(max / p) digits, so
    # its precision grows with them
    points = [(1.0, 1.0, 1.0, 10.0**-e) for e in range(20, 301, 10)]
    points += [(1e100, 1e100, 1e100, 1e20), (0.5, 2.0, 3.0, 1e-120), (0.0, 1e-30, 1.0, 1e-15)]
    worst = 0.0
    for x, y, z, p in points:
        with mpmath.workdps(40 + round(math.log10(max(x, y, z) / p))):
            ref = mpmath.elliprj(x, y, z, p)
        worst = max(worst, float(abs(carlson_rj(x, y, z, p) - ref) / ref) / sys.float_info.epsilon)
    assert worst <= 8.0


def test_carlson_rf_near_overflow():
    # x + y + z overflows above about 6e307: R_F(x, x, x) = 1/sqrt(x)
    for x in (1e300, 2.0**1000, 1e308, sys.float_info.max):
        assert carlson_rf(x, x, x) == pytest.approx(1.0 / math.sqrt(x), rel=4.0 * sys.float_info.epsilon)
    worst = 0.0
    for x, y, z in ((0.0, 1e308, 1.5e308), (1.0, 2.0**1000, 3e300), (1e-300, 1e308, 1.7e308)):
        ref = mpmath.elliprf(x, y, z)
        worst = max(worst, float(abs(carlson_rf(x, y, z) - ref) / ref) / sys.float_info.epsilon)
    assert worst <= 4.0


def _pi_by_definition(n: float, k: float):
    """Pi(n, k) = R_F(0, k'^2, 1) + (n/3) R_J(0, k'^2, 1, 1 - n), whose terms
    cancel for n << 0 to about sqrt(-n) times the result; the working
    precision covers that loss."""
    with mpmath.workdps(30 + max(0, round(math.log10(-n))) // 2):
        kc2, n = mpmath.mpf((1.0 - k) * (1.0 + k)), mpmath.mpf(n)
        return mpmath.elliprf(0, kc2, 1) + n / 3 * mpmath.elliprj(0, kc2, 1, 1 - n)


@functools.lru_cache(maxsize=None)
def _rf_30(k: float):
    """R_F(0, k'^2, 1) to 30 digits, which _pi_positive needs at every n."""
    with mpmath.workdps(30):
        return mpmath.elliprf(0, mpmath.mpf((1.0 - k) * (1.0 + k)), 1)


def _pi_positive(n: float, k: float):
    """Pi(n, k) for n < 0 as the sum of two positive terms,
    (R_F(0, k'^2, 1) + (-n) p/3 R_J(0, k'^2, 1, p))/(1 - n), p = k'^2/(1 - n)."""
    with mpmath.workdps(30):
        kc2, q = mpmath.mpf((1.0 - k) * (1.0 + k)), 1 - mpmath.mpf(n)
        p = kc2 / q
        return (_rf_30(k) - n * p / 3 * mpmath.elliprj(0, kc2, 1, p)) / q


def test_complete_pi_for_negative_characteristic():
    # n = -10**(i/4), i = 0, 3, ..., 1200, and three edge values, in units
    # of the result's ulp: the positive form is checked against the
    # definition at some n, and complete_Pi against the positive form at
    # every n. On every i = 0..1200 at ten moduli from k = 0 to
    # k = 1 - 2**-40 (k' about 2**-19.5) the worst found is 2.88 ulps, at
    # n = -10**1.25, k = 0.3; from n = -1e300 down to -1.7e308, 0.91 ulps
    def ulps(got, ref):
        return float(abs(got - ref)) / math.ulp(float(ref))

    for k in (0.05, 0.5, 0.99, 1.0 - 2.0**-40):
        for e in (0, 1, 12, 30, 100, 300):
            n = -(10.0**e)
            assert ulps(_pi_positive(n, k), _pi_by_definition(n, k)) <= 1e-6, (k, e)
    ns = [-(10.0 ** (i / 4.0)) for i in range(0, 1201, 3)]
    ns += [math.nextafter(-1.0, -2.0), -1e302, -1.7e308]
    worst = 0.0
    for k in (0.0, 0.05, 0.3, 0.5, 0.9, 0.99, 1.0 - 2.0**-20, 1.0 - 2.0**-40):
        for n in ns:
            worst = max(worst, ulps(complete_Pi(n, k), _pi_positive(n, k)))
    assert worst <= 3.0


def _kpi_points():
    """3,000 seeded (n, k) of the elliptic oracle's domain, then edge points:
    n -> 1, k -> 1 down to k' = 2**-20, k = 1e-8, both sides of n = -1
    and of n = k, two lines of n from k to 1, and k = 0."""
    rng = random.Random(20181021)
    points = [(rng.uniform(-1.0, 1.0 - 1e-4), rng.uniform(0.05, 0.99)) for _ in range(3000)]
    for k in (1e-8, 0.05, 0.5, 0.9498452744016076, 0.99, 1.0 - 2.0**-10, 1.0 - 2.0**-21, 1.0 - 2.0**-41):
        ns = [1.0 - 1e-4, 1.0 - 1e-8, 1.0 - 2.0**-30, 1.0 - 2.0**-53, -0.5, 0.5]
        ns += [-1.0, math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0)]
        ns += [k, math.nextafter(k, 1.0), math.nextafter(k, 0.0)]
        points += [(n, k) for n in ns if n < 1.0]
    for k in (0.3, 1.0 - 2.0**-41):
        # 1 - n from (1 - k) 2**-0.25 down to (1 - k) 2**-40, or to 2**-53
        ns = [1.0 - (1.0 - k) * 2.0 ** (-i / 4.0) for i in range(1, 161)]
        points += [(n, k) for n in ns if n < 1.0]
    points += [(n, 0.0) for n in (-1.0, -0.5, 0.5, 0.99, 1.0 - 1e-8)]
    return points


def test_complete_K_and_Pi_against_mpmath():
    # relative error in units of eps = 2**-52 against 30 digits. K's worst
    # known error is 2.02 eps, at k = 0.9498452744016076, among the edges
    eps = 2.0**-52
    worst_k = worst_pi = 0.0
    with mpmath.workdps(30):
        for n, k in _kpi_points():
            m = mpmath.mpf(k) ** 2
            ref = mpmath.ellippi(n, m)
            worst_pi = max(worst_pi, float(abs(complete_Pi(n, k) - ref) / ref) / eps)
            if k > 0.0:
                ref = mpmath.ellipk(m)
                worst_k = max(worst_k, float(abs(complete_K(k) - ref) / ref) / eps)
    assert worst_k <= 2.05
    assert worst_pi <= 3.0


def u_reference(t: float):
    """U(t) = 2 int_0^(1/2) exp(-(16t/3)(1/4 - v^2)^2) dv at 30 digits."""
    with mpmath.workdps(30):
        c = mpmath.mpf(16) * t / 3
        quarter = mpmath.mpf(1) / 4
        return 2 * mpmath.quad(lambda v: mpmath.exp(-c * (quarter - v * v) ** 2), [0, 0.25, 0.5])


def test_u_value_against_quad():
    worst = 0.0
    for t in (0.0, 0.1, 1.0, 2.0, 5.0, 10.0, 20.0, 36.8, 50.0):
        ref = u_reference(t)
        worst = max(worst, float(abs(u_value(t) - ref) / ref) / sys.float_info.epsilon)
    assert worst <= 4.0


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 20.0, 30.0, 40.0, 60.0, 100.0])
def test_u_series_within_its_claim(t):
    # past t ~ 25 rounding in the growing terms dominates the claim
    res = u_series(t)
    assert abs(res.value - u_reference(t)) <= res.error_estimate


@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0, 100.0, 400.0])
def test_u_quadrature_within_its_claim(t):
    # twice the integral over [0, 1/2], the u <-> 1-u symmetric half
    res = _u_quadrature(t)
    assert res.converged
    assert abs(res.value - u_reference(t)) <= res.error_estimate


def hankel_sum_reference(t: float):
    """S(t) by its series at 45 digits, for 0 < t <= 50.

    The terms a_n = (-1)^n binom(2n, n)/4^n t^((n-1)/2) / Gamma((n+1)/2)
    start from a_0 = 1/sqrt(pi t) and a_1 = -1/2, and each parity recurs
    by a rational factor, a_(n+2) = a_n (2n+1)(2n+3) t / ((n+1)^2 (2n+4)).
    They peak near exp(t)/(2 pi t), about 1.6e19 at t = 50, so 45 digits
    leave the sum good to about 1e-26 there."""
    with mpmath.workdps(45):
        t = mpmath.mpf(t)
        even, odd = 1 / mpmath.sqrt(mpmath.pi * t), mpmath.mpf(-1) / 2
        total, n = even + odd, 0
        # each parity's ratio is below 2t/(n+2), so past n = 2t the terms fall
        while n <= 2 * t or abs(even) + abs(odd) >= mpmath.mpf(10) ** -45:
            even *= t * ((2 * n + 1) * (2 * n + 3)) / ((n + 1) ** 2 * (2 * n + 4))
            odd *= t * ((2 * n + 3) * (2 * n + 5)) / ((n + 2) ** 2 * (2 * n + 6))
            total += even + odd
            n += 2
        return total


@pytest.mark.parametrize("t", [1e-9, 1e-6, 6e-6, 1e-4, 0.084375, 0.75, 1.209375, 2.0, 3.5, 5.0, 6.0])
def test_hankel_series_near_zero_within_its_bound(t):
    # below t ~ 2.5e-5 the first term's roundoff floor alone passes
    # TAIL_TOL, and the bound is 4 eps |S|
    ref = hankel_sum_reference(t)
    bound = max(TAIL_TOL, 4.0 * sys.float_info.epsilon * float(abs(ref)))
    assert float(abs(hankel_series(t) - ref)) <= bound


def _hankel_ratio(t: float) -> float:
    """|hankel_series(t) - S(t)| over its bound max(TAIL_TOL, 4 eps |S|)."""
    ref = hankel_sum_reference(t)
    bound = max(TAIL_TOL, 4.0 * sys.float_info.epsilon * float(abs(ref)))
    return float(abs(hankel_series(t) - ref)) / bound


def test_hankel_series_within_its_bound_on_a_dense_grid():
    # every 0.01 up to the upper limit, and 100 points spread evenly in
    # log t over [1e-12, 1e-2], 73 of them in the relative regime below
    # t ~ 2.5e-5. The worst ratio to the bound is 0.47, at 9.1, where the
    # rounding floor nears its three quarters of TAIL_TOL; on (0, 6] it
    # is 0.25, at t = 7.1e-8
    grid = [k / 100 for k in range(1, 918)] + [10.0 ** (-12.0 + k / 9.9) for k in range(100)]
    assert max(grid) <= series._HANKEL_T_MAX < 9.18
    worst = max(grid, key=_hankel_ratio)
    assert _hankel_ratio(worst) <= 0.5, worst


def test_hankel_coefficients_are_correctly_rounded():
    # c_n = binom(2n, n)/(4^n Gamma((n+1)/2)) to 40 digits, rounded once;
    # _PI_FIX is pi's first 32 hexadecimal digits, pi * 2**124 rounded down
    with mpmath.workdps(40):
        assert 0 <= mpmath.pi * 2**124 - series._PI_FIX < 1
        for n, c in enumerate(series._HANKEL_C):
            ref = mpmath.binomial(2 * n, n) / mpmath.mpf(4) ** n / mpmath.gamma(mpmath.mpf(n + 1) / 2)
            assert c == float(ref), n


def test_hyperbolic_within_its_bound():
    # the upper piece of R3 takes S(t) from the rule on [6, 50]; its error
    # is largest near t = 6 (8.4e-14 at 6.1), so the grid is finest there
    grid = [6.0 + k / 40 for k in range(80)] + [8.0 + k for k in range(43)]
    worst = max(float(abs(hankel_hyperbolic(t) - hankel_sum_reference(t))) for t in grid)
    assert worst <= HYPERBOLIC_ERROR


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_exp_integral_within_its_claim(delta, t):
    res = hankel_exp_integral(t, delta)
    assert abs(res.value - s_reference(t)) <= res.error_estimate


def test_resolvent_within_its_claim():
    # the 20-point u grid, V6's 10 offsets c = (16/3) u^2 (1-u)^2 among
    # them, against the residue 1/sqrt((1+c) + sqrt(1+c)) to 30 digits
    for j in range(20):
        u = j / 19.0
        c = 16.0 / 3.0 * u * u * (1.0 - u) ** 2
        res = hankel_resolvent_integral(c)
        with mpmath.workdps(30):
            a = 1 + mpmath.mpf(c)
            error = abs(mpmath.mpf(res.value) - 1 / mpmath.sqrt(a + mpmath.sqrt(a)))
        assert res.converged, j
        assert error <= res.error_estimate, j


def _x_form(weight, lower, upper):
    """int_lower^upper weight(x) dx / sqrt(Delta(x)) with k = 2 - sqrt(3), to 40 digits."""
    with mpmath.workdps(40):
        k = 2 - mpmath.sqrt(3)
        return mpmath.quad(
            lambda x: weight(x) / mpmath.sqrt((x * x - 1) * (1 - k * k * x * x)), [lower(), upper()]
        )


def _pre_normal_form(weight):
    """int_4^{4(3 sqrt3 - 4)} weight(x) sqrt((8 - x)/(x^2 - 16)) / (2 (4(4 + 3 sqrt3) + x)) dx."""
    with mpmath.workdps(40):
        s3 = mpmath.sqrt(3)
        return mpmath.quad(
            lambda x: weight(x) * mpmath.sqrt((8 - x) / (x * x - 16)) / (2 * (4 * (4 + 3 * s3) + x)),
            [4, 4 * (3 * s3 - 4)],
        )


def _one():
    return mpmath.mpf(1)


def _inv_k():
    return 2 + mpmath.sqrt(3)


def _a_upper():
    return (1 + mpmath.sqrt(3)) / 2


_PARTS = {
    "delta-whole": (
        lambda: integrate(*DELTA_FORMS[0]),
        lambda: _x_form(lambda x: 1, _one, _inv_k),
    ),
    "delta-partial": (
        lambda: integrate(*DELTA_FORMS[1]),
        lambda: _x_form(lambda x: 1, _one, _a_upper),
    ),
    "delta-shifted": (
        lambda: integrate(*DELTA_FORMS[2]),
        lambda: _x_form(lambda x: 1 / (x + 1 + mpmath.sqrt(3)), _one, _inv_k),
    ),
    "j1": (
        j1_integral,
        lambda: _x_form(lambda x: (x + 1) / (x + 1 + mpmath.sqrt(3)), _a_upper, _inv_k),
    ),
    "j2": (
        j2_integral,
        lambda: _x_form(lambda x: (x - _inv_k()) / (x + 1 + mpmath.sqrt(3)), _one, _a_upper),
    ),
    "h1": (
        h1_integral,
        lambda: _pre_normal_form(lambda x: (3 + 2 * mpmath.sqrt(3)) / mpmath.sqrt(5 - x)),
    ),
    "h2": (h2_integral, lambda: _pre_normal_form(lambda x: 1)),
}


@pytest.mark.parametrize("part", list(_PARTS))
def test_sub_integral_within_its_claim(part):
    # the parts that R9, R10, R11 and the V0-V2 checks combine, each
    # against its defining x-form integral
    compute, reference = _PARTS[part]
    res = compute()
    assert res.converged
    assert abs(res.value - float(reference())) <= res.error_estimate
