"""High-precision oracle checks with mpmath (a test-only dependency)."""

import random
import sys

import pytest

from gr32485.contour import hankel_exp_integral, hankel_hyperbolic
from gr32485.elliptic import carlson_rf
from gr32485.quadrature import integrate
from gr32485.representations import (
    DELTA_FORMS,
    h1_integral,
    h2_integral,
    j1_integral,
    j2_integral,
)
from gr32485.series import u_series, u_value

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


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_exp_integral_within_its_claim(delta, t):
    res = hankel_exp_integral(t, delta)
    assert abs(res.value - s_reference(t)) <= res.error_estimate


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
