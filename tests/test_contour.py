import math
import random

import pytest

import gr32485.contour as contour
from gr32485.contour import (
    hankel_exp_integral,
    hankel_hyperbolic,
    hankel_resolvent_integral,
    nested_radical,
    principal_sqrt,
)
from gr32485.quadrature import IntegrandError, QuadratureConfig
from gr32485.series import TAIL_TOL, hankel_series


def test_principal_sqrt_values():
    assert principal_sqrt(4.0 + 0.0j) == pytest.approx(2.0 + 0.0j)
    assert principal_sqrt(2.0j) == pytest.approx(1.0 + 1.0j, rel=1e-14)
    w = principal_sqrt(-1.0 + 1e-9j)
    assert w.real > 0.0
    assert w.imag == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("z", [0.0 + 0.0j, -1.0 + 0.0j, complex(-2.0, -0.0), -0.25 + 0.0j])
def test_principal_sqrt_cut_is_domain_error(z):
    with pytest.raises(ValueError):
        principal_sqrt(z)


def test_principal_sqrt_conjugate_symmetry():
    for z in (1.3 + 0.7j, -2.0 + 0.5j, 0.01 - 3.0j, 5.0 - 0.001j):
        assert principal_sqrt(z.conjugate()) == principal_sqrt(z).conjugate()


def test_principal_sqrt_square_roundtrip():
    for z in (0.5 + 0.1j, -1.0 + 2.0j, 3.0 - 4.0j):
        w = principal_sqrt(z)
        assert abs(w * w - z) <= 1e-14 * abs(z)
        assert w.real > 0.0


def test_nested_radical_real_points():
    assert nested_radical(1.0 + 0.0j) == pytest.approx(math.sqrt(2.0) + 0.0j, rel=1e-15)
    assert nested_radical(4.0 + 0.0j) == pytest.approx(math.sqrt(6.0) + 0.0j, rel=1e-15)


def test_nested_radical_self_consistency_at_i():
    z = 1.0j
    w = nested_radical(z)
    assert w.real > 0.0
    assert w.imag > 0.0
    assert abs(w * w - (z + principal_sqrt(z))) <= 1e-13


def test_nested_radical_cut_error():
    # the same error, message included, as the composition of principal_sqrt
    for z in (0j, -3.0 + 0.0j, complex(-3.0, -0.0)):
        with pytest.raises(ValueError) as expected:
            principal_sqrt(z + principal_sqrt(z))
        with pytest.raises(ValueError) as got:
            nested_radical(z)
        assert str(got.value) == str(expected.value)


def _bits(w: complex) -> tuple[str, str]:
    return w.real.hex(), w.imag.hex()


def test_nested_radical_is_the_principal_sqrt_composition(monkeypatch):
    rng = random.Random(20181018)
    points = [complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)) for _ in range(400)]
    points += [complex(-rng.uniform(0.0, 8.0), s * 1e-300) for s in (1.0, -1.0) for _ in range(20)]
    points += [complex(rng.uniform(0.0, 8.0), z) for z in (0.0, -0.0) for _ in range(20)]
    # every node the contour integrals and the hyperbolic rule evaluate
    seen = []

    def recording(z):
        seen.append(z)
        return nested_radical(z)

    monkeypatch.setattr(contour, "nested_radical", recording)
    hankel_exp_integral(1.0)
    hankel_exp_integral(2.0, 0.25)
    hankel_resolvent_integral(1.0)
    hankel_hyperbolic(10.0)
    assert len(seen) > 500
    for z in points + seen:
        assert _bits(nested_radical(z)) == _bits(principal_sqrt(z + principal_sqrt(z))), z


def test_integrand_overflow_names_the_node():
    with pytest.raises(IntegrandError, match=r"^integrand overflow at node .+: math range error$"):
        hankel_exp_integral(1e308)


def test_calls_outside_a_run_fill_fresh_node_tables(monkeypatch):
    # outside a run of the check runner nothing is kept between calls
    seen = []

    def recording(z):
        seen.append(z)
        return nested_radical(z)

    monkeypatch.setattr(contour, "nested_radical", recording)
    first = hankel_exp_integral(1.0)
    assert len(seen) == len(set(seen)) == first.evals
    assert hankel_exp_integral(1.0) == first
    assert len(seen) == 2 * first.evals


def test_path_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            hankel_exp_integral(1.0, bad)


def test_exp_integral_matches_series():
    # neither side is exact: the series stops once its tail is below TAIL_TOL
    for t in (0.5, 1.0, 2.0, 5.0):
        contour_val = hankel_exp_integral(t)
        assert contour_val.converged
        assert abs(contour_val.value - hankel_series(t)) <= contour_val.error_estimate + TAIL_TOL


def test_exp_integral_small_t_leading_term():
    t = 0.01
    res = hankel_exp_integral(t)
    leading = 1.0 / math.sqrt(math.pi * t)
    assert res.converged
    assert abs(res.value / leading - 1.0) <= 0.15


def test_exp_integral_delta_independence():
    for t in (1.0, 2.0):
        base = hankel_exp_integral(t)
        for delta in (0.25, 1.0):
            other = hankel_exp_integral(t, delta)
            assert other.converged
            assert abs(other.value - base.value) <= 1e-10


def test_exp_integral_requires_positive_t():
    with pytest.raises(ValueError):
        hankel_exp_integral(0.0)


def test_resolvent_examples():
    res = hankel_resolvent_integral(0.0)
    assert res.converged
    assert abs(res.value - 1.0 / math.sqrt(2.0)) <= 1e-9
    res = hankel_resolvent_integral(1.0 / 3.0)
    assert abs(res.value - (3.0 - math.sqrt(3.0)) / 2.0) <= 1e-9
    res = hankel_resolvent_integral(0.1)
    ref = (1.0 / nested_radical(complex(1.1, 0.0))).real
    assert abs(res.value - ref) <= 1e-9


def test_resolvent_residue_identity_on_grid():
    for j in range(20):
        u = j / 19.0
        c = 16.0 / 3.0 * u * u * (1.0 - u) ** 2
        res = hankel_resolvent_integral(c)
        ref = 1.0 / math.sqrt((1.0 + c) + math.sqrt(1.0 + c))
        assert res.converged
        assert abs(res.value - ref) <= res.error_estimate


def test_resolvent_rejects_negative_c():
    with pytest.raises(ValueError):
        hankel_resolvent_integral(-0.1)


def test_resolvent_rejects_pole_on_contour():
    # the resolvent's contour distance is fixed at 0.5, left of the pole at
    # 1 + c >= 1; no delta can be passed, positionally or by name, and a
    # positional one is not taken for a config
    for args in ((0.0, 1.5), (0.0, 0.5)):
        with pytest.raises(TypeError):
            hankel_resolvent_integral(*args)
    with pytest.raises(TypeError):
        hankel_resolvent_integral(0.0, delta=0.5)


def test_loose_budget_still_flags():
    res = hankel_exp_integral(1.0, 0.5, QuadratureConfig(1e-12, 120))
    assert not res.converged


def test_half_contour_evals():
    # only the arc for xi >= 0 and the compactified upper ray are integrated
    assert hankel_exp_integral(1.0).evals <= 270
    assert hankel_resolvent_integral(1.0).evals <= 165


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0, 5.0, 8.0])
def test_hyperbolic_matches_series(t):
    assert abs(hankel_hyperbolic(t) - hankel_series(t)) <= 1e-12


@pytest.mark.parametrize("t", [8.0, 10.0, 20.0, 30.0])
def test_hyperbolic_matches_exp_integral(t):
    # once t delta reaches about 10 the adaptive contour stalls at its
    # roundoff floor (exp(t delta) on the arc) and claims a wider error;
    # allow it
    ref = hankel_exp_integral(t, cfg=QuadratureConfig(1e-13))
    assert abs(hankel_hyperbolic(t) - ref.value) <= 1e-12 + ref.error_estimate


def test_hyperbolic_requires_positive_t():
    for t in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            hankel_hyperbolic(t)
