import math

import pytest

import gr32485.elliptic as elliptic
from gr32485.elliptic import (
    _rf_state,
    _rj_state,
    carlson_rf,
    carlson_rj,
    complete_K,
    complete_Pi,
    incomplete_F,
    landen_residual,
)
from gr32485.quadrature import Interval, integrate
from gr32485.verifier import run_checks

K_MODULUS = 2.0 - math.sqrt(3.0)


def quad_K(k: float) -> float:
    res = integrate(
        lambda x: 1.0 / math.sqrt((1.0 - x * x) * (1.0 - (k * x) ** 2)),
        Interval(0.0, 1.0, singular_upper=True),
    )
    assert res.converged
    return res.value


def quad_F(phi: float, k: float) -> float:
    s = math.sin(phi)
    res = integrate(
        lambda x: 1.0 / math.sqrt((1.0 - x * x) * (1.0 - (k * x) ** 2)),
        Interval(0.0, s, singular_upper=s == 1.0),
    )
    assert res.converged
    return res.value


def quad_Pi(n: float, k: float) -> float:
    res = integrate(
        lambda x: 1.0
        / ((1.0 - n * x * x) * math.sqrt((1.0 - x * x) * (1.0 - (k * x) ** 2))),
        Interval(0.0, 1.0, singular_upper=True),
    )
    assert res.converged
    return res.value


def test_K_small_modulus_limit():
    assert complete_K(1e-8) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_F_at_right_angle_is_K():
    assert incomplete_F(math.pi / 2.0, 0.3) == pytest.approx(complete_K(0.3), rel=1e-14)


def test_F_small_modulus_is_amplitude():
    assert incomplete_F(0.7, 1e-10) == pytest.approx(0.7, abs=1e-12)
    # and F vanishes at zero amplitude, whatever the modulus
    for k in (1e-10, 0.3, 1.0 / math.sqrt(3.0), 1.0 - 1e-12):
        assert incomplete_F(0.0, k) == 0.0, k


def test_F_special_argument_against_quadrature():
    phi = math.asin(math.sqrt(K_MODULUS))
    k1 = 1.0 / math.sqrt(3.0)
    assert incomplete_F(phi, k1) == pytest.approx(quad_F(phi, k1), abs=1e-12)


def test_Pi_zero_characteristic_is_K():
    # to the bit: both stop their AGM at the same step
    for k in (1e-8, 0.05, 0.5, 0.99, 1.0 - 2.0**-40):
        assert complete_Pi(0.0, k) == complete_K(k), k


def test_Pi_zero_modulus_closed_form():
    assert complete_Pi(0.5, 0.0) == pytest.approx(
        math.pi / (2.0 * math.sqrt(0.5)), abs=1e-12
    )


def test_Pi_entry_arguments_against_quadrature():
    k1 = 1.0 / math.sqrt(3.0)
    assert complete_Pi(K_MODULUS, k1) == pytest.approx(quad_Pi(K_MODULUS, k1), abs=1e-12)


def test_K_entry_modulus_against_quadrature():
    k1 = 1.0 / math.sqrt(3.0)
    assert complete_K(k1) == pytest.approx(quad_K(k1), abs=1e-12)


def test_modulus_cancellation_identity():
    # sqrt(3) K(k') = (1 + sqrt(3)) K(1/sqrt(3)) for k = 2 - sqrt(3); this is
    # the descending Landen step specialised to the entry's moduli
    k = K_MODULUS
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    lhs = math.sqrt(3.0) * complete_K(kp)
    rhs = (1.0 + math.sqrt(3.0)) * complete_K(1.0 / math.sqrt(3.0))
    assert abs(lhs - rhs) < 1e-12


def test_K_oracle_grid():
    for i in range(10):
        k = 0.05 + 0.09 * i
        assert abs(complete_K(k) - quad_K(k)) < 1e-11


def test_F_oracle_grid():
    for i in range(10):
        phi = 0.15 + 0.14 * i
        k = 0.93 - 0.085 * i
        assert abs(incomplete_F(phi, k) - quad_F(phi, k)) < 1e-11


def test_Pi_oracle_grid():
    for i in range(10):
        n = 0.05 + 0.09 * i
        k = 0.9 - 0.08 * i
        assert abs(complete_Pi(n, k) - quad_Pi(n, k)) < 1e-11


@pytest.mark.parametrize("k", [K_MODULUS, 0.5, 0.9])
def test_landen_residual_tight(k):
    assert abs(landen_residual(k)) < 1e-12


def test_landen_residual_near_one():
    assert abs(landen_residual(0.999)) < 1e-10


def test_landen_residual_small_moduli():
    # K(sqrt(1 - k^2)) needs 1 - k'^2 = k^2: recomputed from a rounded k'
    # it cancels, to -0.4 at k = 1e-8, and below that k' rounds to 1
    for j in range(1, 151):
        k = 10.0**-j
        assert abs(landen_residual(k)) <= 4.0 * math.ulp(carlson_rf(0.0, k * k, 1.0)), k


def test_K_monotone_in_modulus():
    ks = [0.02 + 0.05 * i for i in range(19)]
    vals = [complete_K(k) for k in ks]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v > math.pi / 2.0 for v in vals)


def test_Pi_monotone_in_characteristic():
    ns = [0.05 * i for i in range(19)]
    vals = [complete_Pi(n, 0.4) for n in ns]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_duplication_fixed_point_iteration_counts():
    for k in (0.05, 0.3, 0.62, 0.9, 0.99):
        _, iters = _rf_state(0.0, (1.0 - k) * (1.0 + k), 1.0)
        assert iters <= 12
    for n in (0.1, 0.5, 0.73, 0.9):
        _, iters = _rj_state(0.0, 2.0 / 3.0, 1.0, 1.0 - n)
        assert iters <= 12


def test_carlson_argument_validation():
    with pytest.raises(ValueError):
        carlson_rf(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        carlson_rf(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        carlson_rj(0.0, 1.0, 1.0, 0.0)
    # past 2**1000 max(x, y, z) p is rejected and named
    with pytest.raises(ValueError, match=r"1e\+302"):
        carlson_rj(0.0, 0.75, 1.0, 1e302)


@pytest.mark.parametrize(
    "args",
    [
        (math.nan, 1.0, 1.0),
        (math.inf, 1.0, 1.0),
        (1.0, 1.0, math.nan),
        (1.0, 1.0, 1.0, math.inf),
    ],
)
def test_carlson_rejects_non_finite(args):
    # each of these used to return NaN
    fn = carlson_rf if len(args) == 3 else carlson_rj
    with pytest.raises(ValueError):
        fn(*args)


def test_domain_errors():
    for bad in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(ValueError):
            complete_K(bad)
    with pytest.raises(ValueError):
        complete_Pi(1.0, 0.5)
    with pytest.raises(ValueError):
        complete_Pi(0.5, 1.0)
    with pytest.raises(ValueError):
        incomplete_F(-0.1, 0.5)
    with pytest.raises(ValueError):
        incomplete_F(2.0, 0.5)
    # k^2 below the normal range
    for k in (1e-160, 1e-170):
        with pytest.raises(ValueError, match="k >= 2"):
            landen_residual(k)
    for n in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="characteristic"):
            complete_Pi(n, 0.5)


def test_no_package_path_reaches_carlson_rj(monkeypatch):
    # complete_Pi runs on the AGM alone for every n, and the catalog's only
    # Carlson calls are R_F's, for F and the Landen residual
    ns = (-1.7e308, -1e6, -10.0, -1.5, math.nextafter(-1.0, -2.0), -1.0, -0.5, 0.0, 0.3, 0.9)
    ks = (0.0, 0.5, 0.99)
    expected = [complete_Pi(n, k) for n in ns for k in ks]

    def forbidden(*args):
        raise AssertionError(f"Carlson kernel called with {args!r}")

    monkeypatch.setattr(elliptic, "carlson_rj", forbidden)
    monkeypatch.setattr(elliptic, "carlson_rf", forbidden)
    assert [complete_Pi(n, k) for n in ns for k in ks] == expected
    monkeypatch.setattr(elliptic, "carlson_rf", carlson_rf)
    report = run_checks()
    assert [r.id for r in report.records if r.status != "pass"] == []
    assert len(report.records) == 28
