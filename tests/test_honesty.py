"""Seeded batteries for the engine's error bars: a claim must cover the
error of its value, with 8 ulps of the reference granted for the
reference's own rounding."""

import math
import random

import pytest

from gr32485.elliptic import complete_K, complete_Pi, incomplete_F
from gr32485.quadrature import DEFAULT_CONFIG, Interval, QuadratureConfig, integrate

HALF_PI = 0.5 * math.pi


def _underclaims(cases, cfg):
    """The (name, error / claim) of every case whose error exceeds its
    claim by more than 8 ulps of its reference."""
    bad = []
    for name, f, upper, ref in cases:
        res = integrate(f, Interval(0.0, upper), cfg)
        assert res.converged, name
        err = abs(res.value - ref)
        if err > res.error_estimate + 8.0 * math.ulp(ref):
            bad.append((name, err / res.error_estimate))
    return bad


def _theta_forms(rng, points):
    """K, F and Pi in theta form against Carlson, at uniform draws from the
    elliptic oracle's domain outside its n -> 1 region."""
    cases = []
    while len(cases) < 3 * points:
        n, k, phi = rng.uniform(-1.0, 1.0 - 1e-4), rng.uniform(0.05, 0.99), rng.uniform(0.01, HALF_PI)
        if 40.0 * (1.0 - n) * math.sqrt(1.0 - k * k) <= 1.0:
            continue
        kk = k * k
        cases.append(("K", lambda t, kk=kk: 1.0 / math.sqrt(1.0 - kk * math.sin(t) ** 2), HALF_PI, complete_K(k)))
        cases.append(("F", lambda t, kk=kk: 1.0 / math.sqrt(1.0 - kk * math.sin(t) ** 2), phi, incomplete_F(phi, k)))
        cases.append(
            (
                "Pi",
                lambda t, kk=kk, n=n: 1.0 / ((1.0 - n * math.sin(t) ** 2) * math.sqrt(1.0 - kk * math.sin(t) ** 2)),
                HALF_PI,
                complete_Pi(n, k),
            )
        )
    return cases


def _families(rng, draws):
    """Five families on [0, 1] against their closed forms: a Lorentzian
    peaked at the endpoint, exponentials, cosines, an interior peak of
    width 1/w, and powers with a branch point at 0."""
    cases = []
    for _ in range(draws):
        c = 10.0 ** rng.uniform(-1.5, 0.5)
        cases.append(("1/(x^2+c^2)", lambda x, c=c: 1.0 / (x * x + c * c), 1.0, math.atan(1.0 / c) / c))
        a = rng.uniform(-30.0, 30.0)
        cases.append(("exp(ax)", lambda x, a=a: math.exp(a * x), 1.0, math.expm1(a) / a))
        w = rng.uniform(0.5, 100.0)
        cases.append(("cos(wx)", lambda x, w=w: math.cos(w * x), 1.0, math.sin(w) / w))
        w, x0 = 10.0 ** rng.uniform(0.0, 2.5), rng.uniform(0.0, 1.0)
        cases.append(
            (
                "1/(1+w^2(x-x0)^2)",
                lambda x, w=w, x0=x0: 1.0 / (1.0 + (w * (x - x0)) ** 2),
                1.0,
                (math.atan(w * (1.0 - x0)) + math.atan(w * x0)) / w,
            )
        )
        p = rng.uniform(0.5, 8.0)
        cases.append(("x^p", lambda x, p=p: x**p, 1.0, 1.0 / (p + 1.0)))
    return cases


@pytest.mark.parametrize("abs_tol", [DEFAULT_CONFIG.abs_tol, 1e-15])
def test_claims_cover_the_error(abs_tol):
    # 4,500 theta-form integrals and 2,500 of the families, by default and
    # at a tolerance where most panels end at their roundoff floor
    rng = random.Random(20181019)
    cases = _theta_forms(rng, 1500) + _families(rng, 500)
    assert _underclaims(cases, QuadratureConfig(abs_tol=abs_tol)) == []


def test_small_fast_oscillation_count_is_capped():
    # exp(x) + A cos(w x + phi) on [0, 1], A = 10**U(-13, -8), w in [20, 400]:
    # the sharpened |K15 - G7| estimate of a panel scales the raw gap by
    # the panel's variation, which exp dominates, so an oscillation far
    # below it is under-claimed, by up to about 3e4 here. That is a known
    # defect of the estimate, not of the null-rule certification. The
    # count is pinned as a ceiling: certifying every panel within 1e4 of
    # its floor, without the null-rule test, raises it from 1,667 to 2,154.
    rng = random.Random(20181020)
    cases = []
    for _ in range(3000):
        a, w, phi = 10.0 ** rng.uniform(-13.0, -8.0), rng.uniform(20.0, 400.0), rng.uniform(0.0, 2.0 * math.pi)
        cases.append(
            (
                "exp+cos",
                lambda x, a=a, w=w, phi=phi: math.exp(x) + a * math.cos(w * x + phi),
                1.0,
                math.expm1(1.0) + a * (math.sin(w + phi) - math.sin(phi)) / w,
            )
        )
    assert len(_underclaims(cases, DEFAULT_CONFIG)) <= 1667
