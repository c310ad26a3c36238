import math

import pytest

from gr32485 import quadrature
from gr32485.quadrature import (
    DEFAULT_CONFIG,
    Estimate,
    IntegrandError,
    Interval,
    QuadratureConfig,
    integrate,
)
from gr32485.representations import phi

TOL = DEFAULT_CONFIG.abs_tol


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(-math.inf, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf, singular_upper=True)
    with pytest.raises(ValueError):
        Interval(0.0, math.nan)
    # a singular endpoint must be 0 when it is the lower one, and only one end is singular
    with pytest.raises(ValueError):
        Interval(0.0, 1.0, singular_lower=True, singular_upper=True)
    with pytest.raises(ValueError):
        Interval(1.0, 2.0, singular_lower=True)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_evals=14)
    # an infinite tolerance would let every integral "converge" on its first panel
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=bad)
    with pytest.raises(ValueError):
        QuadratureConfig(max_evals=15.5)


def test_replace_is_validated():
    with pytest.raises(ValueError):
        Interval(0.0, 1.0)._replace(upper=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig()._replace(max_evals=14)
    assert Interval(0.0, 1.0)._replace(singular_lower=True) == Interval(0.0, 1.0, True)


@pytest.mark.parametrize(
    "obj, field",
    [
        (Estimate(1.0, 0.0, 15, True), "value"),
        (Interval(0.0, 1.0), "lower"),
        (QuadratureConfig(), "abs_tol"),
    ],
)
def test_value_types_are_immutable(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, 2.0)
    with pytest.raises(AttributeError):
        obj.extra = 2.0


def test_upper_singular_antiderivative():
    res = integrate(
        lambda x: 0.5 / math.sqrt(1.0 - x), Interval(0.0, 1.0, singular_upper=True)
    )
    assert res.converged
    assert res.error_estimate <= TOL
    assert res.evals <= DEFAULT_CONFIG.max_evals
    assert res.value == pytest.approx(1.0, abs=TOL)


def test_semi_infinite_with_singular_origin():
    res = integrate(
        lambda t: math.exp(-t) / math.sqrt(t),
        Interval(0.0, math.inf, singular_lower=True),
    )
    assert res.converged
    assert res.value == pytest.approx(math.sqrt(math.pi), abs=TOL)


def test_compactified_range_at_infinity():
    # t = a - 1 + 1/sigma**2 maps infinity to sigma = 0; where sigma**3
    # underflows the integrand in sigma is 0, not 0 * inf or a division error
    g = quadrature._compact(lambda t: t**-1.5, 0.0)
    assert g(1e-120) == 0.0
    assert g(5e-324) == 0.0
    assert g(1e-100) == pytest.approx(2.0, rel=1e-15)
    res = integrate(lambda t: t**-1.5, Interval(1.0, math.inf))
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=TOL)


def test_table_entry_integrand():
    def f(x: float) -> float:
        p = phi(x)
        return 1.0 / ((1.0 + x * x) ** 1.5 * math.sqrt(p + math.sqrt(p)))

    res = integrate(f, Interval(0.0, math.inf))
    assert res.converged
    assert res.value == pytest.approx(0.666377, abs=5e-7)


def test_inverse_sqrt_exact():
    res = integrate(lambda x: 1.0 / math.sqrt(x), Interval(0.0, 1.0, singular_lower=True))
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
def test_gamma_integrals(s):
    res = integrate(
        lambda t: math.exp(-t) * t ** (s - 1.0),
        Interval(0.0, math.inf, singular_lower=s < 1.0),
    )
    assert res.converged
    assert res.value == pytest.approx(math.gamma(s), abs=1e-12)


def test_linearity():
    iv = Interval(0.0, 2.0)
    f = math.cos
    g = lambda x: x * math.exp(-x)
    combo = integrate(lambda x: 3.0 * f(x) - 2.0 * g(x), iv)
    separate = 3.0 * integrate(f, iv).value - 2.0 * integrate(g, iv).value
    assert abs(combo.value - separate) <= 2.0 * TOL


def test_interval_additivity():
    f = lambda x: math.sin(3.0 * x) ** 2 * math.exp(-0.3 * x)
    whole = integrate(f, Interval(0.0, 4.0)).value
    split = integrate(f, Interval(0.0, 1.37)).value + integrate(f, Interval(1.37, 4.0)).value
    assert abs(whole - split) <= 2.0 * TOL


def test_determinism():
    f = lambda x: math.exp(-x * x) / math.sqrt(x)
    iv = Interval(0.0, math.inf, singular_lower=True)
    a = integrate(f, iv)
    b = integrate(f, iv)
    assert a == b


def test_non_finite_interior_value_raises():
    with pytest.raises(IntegrandError):
        integrate(lambda x: math.nan, Interval(0.0, 1.0))


def test_interior_division_by_zero_raises():
    # an undeclared interior pole surfaces as an evaluation error, whether
    # the integrand returns inf or raises
    with pytest.raises(IntegrandError):
        integrate(lambda x: 1.0 / (x - 0.5), Interval(0.0, 1.0))


def test_budget_exhaustion_reports_nonconvergence():
    # highly oscillatory with a tiny budget: best estimate still returned
    res = integrate(
        lambda x: math.cos(500.0 * x),
        Interval(0.0, 7.0),
        QuadratureConfig(abs_tol=1e-12, max_evals=60),
    )
    assert not res.converged
    assert res.evals <= 60
    assert math.isfinite(res.value)


def test_complex_constant():
    res = integrate(lambda x: 1.0 + 0.0j, Interval(0.0, 1.0))
    assert res.converged
    assert abs(res.value - 1.0) <= TOL


def test_complex_full_period():
    res = integrate(
        lambda x: complex(math.cos(math.pi * x), math.sin(math.pi * x)),
        Interval(0.0, 2.0),
    )
    assert res.converged
    assert abs(res.value.real) <= TOL
    assert abs(res.value.imag) <= TOL
