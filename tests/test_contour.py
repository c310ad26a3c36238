import cmath
import math
import random

import pytest

import gr32485.contour as contour
from gr32485 import quadrature
from gr32485.contour import (
    hankel_exp_integral,
    hankel_hyperbolic,
    hankel_resolvent_integral,
    nested_radical,
    principal_sqrt,
)
from gr32485.quadrature import _MEMO, IntegrandError, Interval, QuadratureConfig
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


def _table_nodes(memo, delta):
    """Every node in the contour node tables at delta of a run memo."""
    token = _MEMO.set(memo)
    try:
        tables = [contour._node_table(name, delta) for name in ("contour arc", "contour ray")]
    finally:
        _MEMO.reset(token)
    return [node for table in tables for nodes, _ in table.values() for node in nodes]


def test_nested_radical_is_the_principal_sqrt_composition():
    rng = random.Random(20181018)
    points = [complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)) for _ in range(400)]
    points += [complex(-rng.uniform(0.0, 8.0), s * 1e-300) for s in (1.0, -1.0) for _ in range(20)]
    points += [complex(rng.uniform(0.0, 8.0), z) for z in (0.0, -0.0) for _ in range(20)]
    for z in points:
        assert _bits(nested_radical(z)) == _bits(principal_sqrt(z + principal_sqrt(z))), z
    # every node the contour integrals evaluate lies in the open upper half
    # plane, and the radical its table holds is the principal composition
    nodes = []
    for integral, delta in (
        (lambda: hankel_exp_integral(1.0), 0.5),
        (lambda: hankel_exp_integral(2.0, 0.25), 0.25),
        (lambda: hankel_resolvent_integral(1.0), 0.5),
    ):
        memo = {}
        token = _MEMO.set(memo)
        try:
            integral()
        finally:
            _MEMO.reset(token)
        nodes += _table_nodes(memo, delta)
    assert len(nodes) > 500
    for z, r, *_ in nodes:
        assert z.imag > 0.0, z
        assert _bits(r) == _bits(nested_radical(z)) == _bits(principal_sqrt(z + principal_sqrt(z))), z


def test_integrand_overflow_names_the_node():
    with pytest.raises(IntegrandError, match=r"^integrand overflow at node .+: math range error$"):
        hankel_exp_integral(1e308)


def test_calls_outside_a_run_fill_fresh_node_tables(built_panels):
    # outside a run of the check runner nothing is kept between calls:
    # each call builds the nodes of every panel it evaluates
    first = hankel_exp_integral(1.0)
    assert 15 * len(built_panels) == first.evals
    assert hankel_exp_integral(1.0) == first
    assert 15 * len(built_panels) == 2 * first.evals
    assert built_panels[: len(built_panels) // 2] == built_panels[len(built_panels) // 2 :]


def _values(g):
    """The panel values _upper_half takes, for a per-node integrand g(z, r)."""
    return lambda nodes: [2.0 * (g(z, r) * w).imag / d for z, r, w, d in nodes]


def _capture_pieces(monkeypatch, g, delta):
    """The arc's and the ray's piece (panel values, 0, 1), as _upper_half
    hands them to the engine."""
    handed = []
    adaptive = contour._adaptive

    def capturing(pieces, cfg):
        handed.append(pieces)
        return adaptive(pieces, cfg)

    monkeypatch.setattr(contour, "_adaptive", capturing)
    contour._upper_half(_values(g), delta, QuadratureConfig(max_evals=30))
    (arc,), (ray,) = handed
    assert arc[1:] == ray[1:] == (0.0, 1.0)
    return arc, ray


def _panel_values(monkeypatch, piece, a, b):
    """The 15 values the engine's panel of piece on [a, b] hands to the
    rule, and the panel."""
    handed = []
    rule = quadrature._rule

    def capturing(values, half):
        handed.append(list(values))
        return rule(values, half)

    # one pass, guarded ray nodes included: the rule runs once
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_rule", capturing)
        result = quadrature._panel(piece[0], a, b)
    (values,) = handed
    return values, result


def _abscissae(a, b):
    # the centre first, then the Kronrod nodes pair by pair, as _panel takes them
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return [mid] + [mid + s * (half * x) for x in quadrature._XGK[:7] for s in (-1.0, 1.0)]


def _dyadic_panels(rng, count):
    panels = [(0.0, 1.0)]
    for _ in range(count):
        depth = rng.randrange(1, 30)
        k = rng.randrange(2**depth)
        panels.append((k / 2**depth, (k + 1) / 2**depth))
    return panels


def test_arc_panel_values_are_the_per_node_form(monkeypatch):
    # a panel's 15 values equal Im(g(z, sqrt(z + sqrt(z))) gamma'(xi)) at
    # its nodes, bit for bit, with gamma(xi) = delta exp(i pi xi / 2)
    def g(z, r):
        return cmath.exp(2.0 * z) / r

    for delta in (0.25, 0.5, 1.0):
        arc, _ = _capture_pieces(monkeypatch, g, delta)

        def per_node(xi, delta=delta):
            w = cmath.exp(contour._ARC * xi)
            z = delta * w
            return (g(z, nested_radical(z)) * (delta * contour._ARC * w)).imag

        for a, b in _dyadic_panels(random.Random(20181020), 60):
            values, result = _panel_values(monkeypatch, arc, a, b)
            assert [v.hex() for v in values] == [per_node(xi).hex() for xi in _abscissae(a, b)], (a, b)
            per_panel = quadrature._panel(lambda xs: list(map(per_node, xs)), a, b)
            assert [v.hex() for v in result] == [v.hex() for v in per_panel]


def test_ray_sigma_map_is_the_engines_compact_map(monkeypatch):
    # the ray is integrated over sigma in (0, 1] with x = -1 + 1/sigma**2:
    # a panel's values equal, bit for bit, the engine's compact map of the
    # integrand in x, tiny-sigma guard and 2 f / sigma**3 order included
    delta = 0.5
    seen = []

    def g(z, r):
        seen.append(z)
        return cmath.exp(z) / r

    _, ray = _capture_pieces(monkeypatch, g, delta)
    xs = []

    def in_x(x):
        xs.append(x)
        z = complex(-delta * x, delta)
        return (g(z, nested_radical(z)) * -delta).imag

    ((reference, *_),) = quadrature._pieces(in_x, Interval(0.0, math.inf))
    # past about sigma = 1.6e-108 sigma**3 underflows to 0: the first two
    # tiny panels straddle that guard, the third lies wholly past it
    tiny = [(0.0, 2.0**-355), (2.0**-359, 2.0**-358), (0.0, 2.0**-400)]
    guarded = 0
    for a, b in _dyadic_panels(random.Random(20181019), 60) + tiny:
        seen.clear()
        values, result = _panel_values(monkeypatch, ray, a, b)
        ray_z = list(seen)
        xs.clear()
        sigmas = _abscissae(a, b)
        assert [v.hex() for v in values] == [reference((s,))[0].hex() for s in sigmas], (a, b)
        # g ran at the nodes the reference evaluates, and at no guarded node
        assert ray_z == [complex(-delta * x, delta) for x in xs], (a, b)
        seen.clear()
        assert [v.hex() for v in result] == [v.hex() for v in quadrature._panel(reference, a, b)]
        guarded += sum(s * s * s == 0.0 for s in sigmas)
    assert guarded == 3 + 8 + 15
    seen.clear()
    assert ray[0]((1e-200,)) == [0.0] and seen == []


def _node_of(panel_index, delta, part, panel):
    """The node at panel_index of one of the contour's first panels, [0, 1/2]
    and [1/2, 1], and its z."""
    s = _abscissae(*panel)[panel_index]
    if part == "arc":
        return s, delta * cmath.exp(contour._ARC * s)
    return s, complex(-delta * (-1.0 + 1.0 / (s * s)), delta)


@pytest.mark.parametrize("part", ["arc", "ray"])
def test_contour_panel_failures_name_the_node(part, built_panels):
    # the panel's values come from one pass over its node table; a zero
    # division or a non-finite value is reported for the node it came from,
    # and the node-by-node pass that finds it leaves no single nodes in
    # the tables
    delta = 0.5
    for panel in ((0.0, 0.5), (0.5, 1.0)):
        s, bad = _node_of(5, delta, part, panel)
        with pytest.raises(IntegrandError) as info:
            contour._upper_half(_values(lambda z, r: 1.0 / ((z - bad) * r)), delta, QuadratureConfig())
        assert str(info.value) == f"integrand division by zero at node {s!r}"
        with pytest.raises(IntegrandError) as info:
            contour._upper_half(_values(lambda z, r: cmath.infj if z == bad else 1.0 / r), delta, QuadratureConfig())
        assert str(info.value) == f"non-finite integrand value at node {s!r}"
    assert built_panels and all(count == 15 for _, count in built_panels)


_EXP_PINS = {
    (0.5, 0.5): ("0x1.f75c3c400acb2p-2", "0x1.afd6c8c89943bp-48", 270),
    (1.0, 0.5): ("0x1.353764c58bd01p-2", "0x1.d4b47349f05bbp-48", 210),
    (2.0, 0.5): ("0x1.740d0daf752d0p-3", "0x1.f4fccbf10b9dbp-49", 210),
    (5.0, 0.5): ("0x1.738d1e02f22cep-4", "0x1.a6ff62592e7c5p-45", 210),
    (1.0, 0.25): ("0x1.353764c58bcffp-2", "0x1.07e0fc7bf7bf0p-48", 270),
    (1.0, 1.0): ("0x1.353764c58bd01p-2", "0x1.639e1f1f76d60p-48", 210),
    (2.0, 0.25): ("0x1.740d0daf752d1p-3", "0x1.420a9b9c39007p-48", 210),
    (2.0, 1.0): ("0x1.740d0daf752cfp-3", "0x1.2ea4088ada648p-46", 180),
}

# the resolvent at the offsets c = (16/3) u^2 (1-u)^2, u = j/19, j = 0..9
_RESOLVENT_PINS = (
    ("0x1.6a09e667f3bcdp-1", "0x1.1ad7bc01366b8p-47", 120),
    ("0x1.6840f6343ec98p-1", "0x1.1972c058d10d7p-47", 120),
    ("0x1.63ce28f8acd6dp-1", "0x1.15f910024707cp-47", 120),
    ("0x1.5df727df91935p-1", "0x1.11691726a9bb2p-47", 120),
    ("0x1.57c03d72b4cb3p-1", "0x1.0c8e30019d3ebp-47", 150),
    ("0x1.51e177da3efe2p-1", "0x1.07f825a281369p-47", 120),
    ("0x1.4cd22cea2aa93p-1", "0x1.04043316f1543p-47", 120),
    ("0x1.48dab41be590fp-1", "0x1.00eadcb5cb594p-47", 120),
    ("0x1.462445708925cp-1", "0x1.fd98ac7fd64afp-48", 120),
    ("0x1.44c47d3dc32f2p-1", "0x1.58dc31a38a5fep-42", 90),
)

# Bits of the contour checks' integrals (V5's and V8's (t, delta) pairs,
# V6's offsets), each part starting as its two halves [0, 1/2] and
# [1/2, 1]. For (0.5, 0.5) and (1.0, 0.25) one root panel [0, 1] would
# settle a part, with an error bar about 5x wider than the halves give;
# both values are within their claims of the mpmath reference
# (test_oracle). The arc's nodes go through cmath.exp, so the bits
# assume the platform libm the suite runs on.


@pytest.mark.parametrize("t, delta", _EXP_PINS)
def test_exp_integral_bits_are_pinned(t, delta):
    res = hankel_exp_integral(t, delta)
    assert (res.value.hex(), res.error_estimate.hex(), res.evals) == _EXP_PINS[t, delta]
    assert res.converged


@pytest.mark.parametrize("j", range(10))
def test_resolvent_bits_are_pinned(j):
    u = j / 19.0
    res = hankel_resolvent_integral(16.0 / 3.0 * u * u * (1.0 - u) ** 2)
    assert (res.value.hex(), res.error_estimate.hex(), res.evals) == _RESOLVENT_PINS[j]
    assert res.converged


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
    # below about 4.0e-307 mu = 71.87/t overflows and the rule would return
    # NaN, so t below 1e-306 is rejected; at 1e-306 the rule is within
    # 5e-13 relative of S's leading term 1/sqrt(pi t)
    for t in (0.0, -1.0, math.nan, 5e-324, 1e-307, math.nextafter(1e-306, 0.0)):
        with pytest.raises(ValueError, match="t must be finite and >= 1e-306"):
            hankel_hyperbolic(t)
    assert hankel_hyperbolic(1e-306) == pytest.approx(1.0 / math.sqrt(math.pi * 1e-306), rel=1e-12)


def test_hyperbola_nodes_lie_off_the_cut():
    # z_k = mu w_k with mu > 0: w_0 is real and positive and every other
    # node lies in the open upper half plane, so sqrt(z + sqrt(z)) never
    # meets the cut there and needs no cut checks
    (w0, _), *others = contour._HYP_RULE
    assert w0.imag == 0.0 and w0.real > 0.0
    assert all(w.imag > 0.0 for w, _ in others)


def _hyperbolic_loop(t):
    """hankel_hyperbolic with the cut-checked nested_radical, its reference."""
    mu = contour._HYP_MU_T / t
    total = 0j
    for w, c in contour._HYP_RULE:
        total += c / nested_radical(mu * w)
    return mu * total.imag


def test_hyperbolic_equals_its_cut_checked_form():
    rng = random.Random(20181019)
    for t in [50.0 * (1.0 - rng.random()) for _ in range(240)] + [1e-3, 8.0, 50.0]:
        assert hankel_hyperbolic(t).hex() == _hyperbolic_loop(t).hex(), t
