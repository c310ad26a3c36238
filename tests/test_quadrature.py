import math
import random

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


def test_linear_combination_propagates_error():
    a = Estimate(1.0, 0.25, 15, True)
    b = Estimate(2.0, 0.5, 30, True)
    combo = quadrature._linear(((2.0, a), (-0.5, b)), const=4.0, extra_err=0.125)
    # value const + sum(c v); error sum(|c| err) + extra_err, so the
    # negative coefficient adds, and const moves the value only
    assert combo == Estimate(4.0 + 2.0 - 1.0, 0.5 + 0.25 + 0.125, 45, True)
    assert quadrature._linear([(1.0, a), (1.0, b._replace(converged=False))]).converged is False
    # complex values pass through, as the contour's upper half needs
    z = quadrature._linear([(1.0, Estimate(1.0 + 2.0j, 0.5, 15, True)), (1.0, a)])
    assert z.value == 2.0 + 2.0j and z.error_estimate == 0.75


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


# Bits of one panel's (value, err, floor) for arithmetic-only integrands,
# so no libm function sits in the integrand; err still passes through
# the C library's pow, and a complex panel's sizes through its hypot.
_PANEL_PINS = [
    (
        lambda x: 1.0 / (1.0 + x * x),
        (0.0, 1.0),
        ("0x1.921fb54442d18p-1", "0x1.1b6e617d9635fp-33", "0x1.3a28c59d5433bp-47"),
    ),
    (
        lambda x: 1.0 / (1.0 + x * x),
        (-3.0, 4.0),
        ("0x1.497e21664cfe4p+1", "0x1.be958a42417a0p+0", "0x1.016a8a17ec26ap-45"),
    ),
    (
        lambda x: (1.0 + 2.0j) / (x + 3.0j),
        (0.0, 2.0),
        (
            ("0x1.5c204868aecdcp+0", "-0x1.c32104fd0f9efp-3"),
            "0x1.9dbb0250bfc93p-43",
            "0x1.1792ca0dbf57fp-46",
        ),
    ),
    (
        lambda x: (1.0 + 2.0j) / (x + 3.0j),
        (-1.0, 5.0),
        (
            ("0x1.a8775b51329e8p+1", "-0x1.06dd6305386d8p-3"),
            "0x1.8f2f8535dabbfp-15",
            "0x1.6849179e2692ap-45",
        ),
    ),
]


def _hex(v):
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex()


@pytest.mark.parametrize("f, ab, pin", _PANEL_PINS)
def test_gk15_panel_bits_are_pinned(f, ab, pin):
    assert tuple(_hex(v) for v in quadrature._gk15(f, *ab)) == pin


def _gk15_loop(g, a, b):
    """The panel with its sums as loops over the nodes, the reference for
    the written-out sums of quadrature._gk15 (finite values only)."""
    xgk, wgk, wg = quadrature._XGK, quadrature._WGK, quadrature._WG
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = g(mid)
    pairs = [(g(mid - half * x), g(mid + half * x)) for x in xgk[:7]]
    resk = wgk[7] * fc
    resg = wg[3] * fc
    for j, (f1, f2) in enumerate(pairs):
        resk += wgk[j] * (f1 + f2)
        if j % 2 == 1:
            resg += wg[j // 2] * (f1 + f2)
    err = abs((resk - resg) * half)
    mean = resk * 0.5
    resasc = wgk[7] * abs(fc - mean)
    resabs = wgk[7] * abs(fc)
    for j, (f1, f2) in enumerate(pairs):
        resasc += wgk[j] * (abs(f1 - mean) + abs(f2 - mean))
        resabs += wgk[j] * (abs(f1) + abs(f2))
    resasc *= abs(half)
    resabs *= abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * quadrature._EPS * resabs
    return resk * half, max(err, floor), floor


def test_gk15_panel_equals_its_loop_form():
    rng = random.Random(20181015)
    integrands = (
        lambda x: 1.0 / (1.0 + x * x),
        math.exp,
        lambda x: (1.0 + 2.0j) / (x + 3.0j),
        lambda x: complex(math.cos(3.0 * x), math.sin(2.0 * x)) * math.exp(-x),
        lambda x: 0.0,
    )
    for f in integrands:
        for _ in range(200):
            a = rng.uniform(-5.0, 5.0)
            b = a + 10.0 ** rng.uniform(-9.0, 1.0)
            got = [_hex(v) for v in quadrature._gk15(f, a, b)]
            assert got == [_hex(v) for v in _gk15_loop(f, a, b)], (a, b)


def test_panel_stops_at_the_first_non_finite_node():
    # the centre first, then mid - dx and mid + dx for the outermost
    # node: the NaN at the third node ends the panel there
    calls = []

    def g(x):
        calls.append(x)
        return math.nan if len(calls) == 3 else 1.0

    with pytest.raises(IntegrandError) as info:
        quadrature._gk15(g, 0.0, 1.0)
    dx = 0.5 * quadrature._XGK[0]
    assert calls == [0.5, 0.5 - dx, 0.5 + dx]
    assert str(info.value) == f"non-finite integrand value at node {calls[2]!r}"


def test_panel_division_by_zero_names_the_node():
    node = 0.5 + 0.5 * quadrature._XGK[1]
    calls = []

    def g(x):
        calls.append(x)
        return 1.0 / (x - node)

    with pytest.raises(IntegrandError) as info:
        quadrature._gk15(g, 0.0, 1.0)
    assert calls[-1] == node and len(calls) == 5
    assert str(info.value) == f"integrand division by zero at node {node!r}"
    assert info.value.__suppress_context__


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
