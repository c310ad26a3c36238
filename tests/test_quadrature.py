import collections
import itertools
import math
import random
import re

import pytest

from gr32485 import contour, quadrature
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
    # a piece starts as two 15-point panels
    for small in (14, 29):
        with pytest.raises(ValueError):
            QuadratureConfig(max_evals=small)
    assert QuadratureConfig(max_evals=30).max_evals == 30
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
    ((values, *_),) = quadrature._pieces(lambda t: t**-1.5, Interval(0.0, math.inf))
    assert values((1e-120,)) == [0.0]
    assert values((5e-324,)) == [0.0]
    assert values((1e-100,))[0] == pytest.approx(2.0, rel=1e-15)
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


def test_linear_combination_sums_are_correctly_rounded():
    # 1 + 2**-53 + 2**-53 rounds to 1 when summed left to right, on some
    # Pythons and not others; fsum gives the rounded exact sum on every one
    tiny = Estimate(2.0**-53, 2.0**-53, 15, True)
    combo = quadrature._linear([(1.0, Estimate(1.0, 1.0, 15, True)), (1.0, tiny), (1.0, tiny)])
    assert combo.value == combo.error_estimate == 1.0 + 2.0**-52


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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(IntegrandError):
            integrate(lambda x: bad, Interval(0.0, 1.0))


def test_interior_division_by_zero_raises():
    # an undeclared interior pole surfaces as an evaluation error, whether
    # the integrand returns inf or raises
    with pytest.raises(IntegrandError):
        integrate(lambda x: 1.0 / (x - 0.5), Interval(0.0, 1.0))


def test_interior_division_by_zero_names_the_node():
    # the one-pass panel fails, and the node-by-node rerun names the node:
    # the fourth of the first panel [0, 1/2]
    node = 0.25 + 0.25 * quadrature._XGK[1]
    with pytest.raises(IntegrandError) as info:
        integrate(lambda x: 1.0 / (x - node), Interval(0.0, 1.0))
    assert str(info.value) == f"integrand division by zero at node {node!r}"
    assert info.value.__suppress_context__


def test_a_piece_starts_as_its_two_halves():
    # a quadratic is exact on each half, so the two halves settle it, each
    # evaluated in one pass in the order of _nodes
    calls = []

    def f(x):
        calls.append(x)
        return x * x

    res = integrate(f, Interval(0.0, 1.0))
    assert res == Estimate(res.value, res.error_estimate, 30, True)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert calls == [*quadrature._nodes(0.0, 0.5)[1], *quadrature._nodes(0.5, 1.0)[1]]
    # [0, inf) singular at 0 is two pieces, [0, 1] in s and [1, inf) in
    # sigma, so its budget must admit four panels
    iv = Interval(0.0, math.inf, True)
    res = integrate(lambda t: math.exp(-t) / math.sqrt(t), iv)
    assert res.converged and res.evals >= 60
    with pytest.raises(ValueError, match="interval decomposition"):
        integrate(lambda t: math.exp(-t) / math.sqrt(t), iv, QuadratureConfig(max_evals=59))
    assert integrate(lambda t: math.exp(-t) / math.sqrt(t), iv, QuadratureConfig(max_evals=60)).evals == 60


def _sub(f, end, step):
    """The integrand in s, where x = end + step * s**2 moves away from a
    singular endpoint, node by node: the reference for the engine's. A
    node that rounds onto the endpoint takes the float next to it, on
    the interval's side."""

    def g(s):
        x = end + step * (s * s)
        if x == end:
            x = math.nextafter(end, step * math.inf)
        return 2.0 * s * f(x)

    return g


@pytest.mark.parametrize("b", [1e17, 2.0**60, 1e300])
def test_singular_upper_endpoint_is_never_evaluated_past_2_53(b):
    # past 2**53, b - 1.0 rounds to b, so a nudge toward b - 1.0 stayed at b
    # and 1/sqrt(b - x) divided by zero there; the engine nudges toward the
    # lower endpoint. The integrand recomputes b - x, so the result need not
    # converge (see the module docstring); it must be finite
    nodes = []

    def f(x):
        nodes.append(x)
        return 1.0 / math.sqrt(b - x)

    res = integrate(f, Interval(0.0, b, singular_upper=True))
    assert max(nodes) == math.nextafter(b, 0.0)
    assert math.isfinite(res.value) and math.isfinite(res.error_estimate)
    assert res.value == pytest.approx(2.0 * math.sqrt(b), rel=1e-7)


# The oracle's x-forms of K(k) and Pi(n, k), singular at x = 1, and K in
# u = 1 - x, singular at u = 0, at three (n, k): (value, error_estimate,
# evals, converged) at the default configuration, value and error in hex.
_SQRT3 = math.sqrt(3.0)
_SINGULAR_PINS = [
    (
        (2.0 - _SQRT3, 1.0 / _SQRT3),
        [
            ("0x1.bbe1fa1c2a2bep+0", "0x1.5ac88b6600f24p-46", 30, True),
            ("0x1.0573da202120dp+1", "0x1.988504d233c34p-46", 30, True),
            ("0x1.bbe1fa1c2a3e8p+0", "0x1.5ac88b660100dp-46", 30, True),
        ],
    ),
    (
        (0.97, 0.6),
        [
            ("0x1.c03166b6ded8dp+0", "0x1.5e26983ede196p-46", 30, True),
            ("0x1.5e6adc5bd3262p+3", "0x1.62f9cf2a74878p-41", 180, True),
            ("0x1.c03166b6deebep+0", "0x1.5e26983ede284p-46", 30, True),
        ],
    ),
    (
        (0.6, 0.99),
        [
            ("0x1.ada51600cb31dp+1", "0x1.408a986a14042p-43", 120, True),
            ("0x1.9cfa431da4e47p+2", "0x1.6fa52879745dcp-42", 150, True),
            ("0x1.ada51600c9518p+1", "0x1.4fa8f9309d47bp-45", 120, True),
        ],
    ),
]


@pytest.mark.parametrize("nk, pins", _SINGULAR_PINS)
def test_singular_end_bits_are_pinned(nk, pins):
    n, k = nk
    forms = [
        (lambda x: 1.0 / math.sqrt((1.0 - x * x) * (1.0 - k * k * x * x)), Interval(0.0, 1.0, singular_upper=True)),
        (
            lambda x: 1.0 / ((1.0 - n * x * x) * math.sqrt((1.0 - x * x) * (1.0 - k * k * x * x))),
            Interval(0.0, 1.0, singular_upper=True),
        ),
        (
            lambda u: 1.0 / math.sqrt(u * (2.0 - u) * (1.0 - k * k * (1.0 - u) * (1.0 - u))),
            Interval(0.0, 1.0, singular_lower=True),
        ),
    ]
    for (f, iv), pin in zip(forms, pins):
        res = integrate(f, iv)
        assert (res.value.hex(), res.error_estimate.hex(), res.evals, res.converged) == pin, iv


def _compact(f, a):
    """The integrand on [a, inf) in sigma, where t = a - 1 + 1/sigma**2,
    node by node: the reference for the engine's."""

    def g(sigma):
        s3 = sigma * sigma * sigma
        if s3 == 0.0 or not math.isfinite(t := a - 1.0 + 1.0 / (sigma * sigma)):
            return 0.0
        return 2.0 * f(t) / s3

    return g


@pytest.mark.parametrize(
    "iv, references",
    [
        (Interval(-1.0, 2.0), lambda f: [f]),
        (Interval(0.0, 2.0, singular_lower=True), lambda f: [_sub(f, 0.0, 1.0)]),
        (Interval(-1.0, 1.0, singular_upper=True), lambda f: [_sub(f, 1.0, -1.0)]),
        (Interval(0.5, math.inf), lambda f: [_compact(f, 0.5)]),
        (Interval(0.0, math.inf, singular_lower=True), lambda f: [_sub(f, 0.0, 1.0), _compact(f, 1.0)]),
    ],
)
def test_piece_values_are_the_substitutions_node_by_node(iv, references):
    # a piece's values in one pass and at one node each equal, bit for
    # bit, the substitution written node by node, guards included: the
    # nudge off a singular endpoint near s = 0 and the zero near the image
    # of infinity
    def f(x):
        return math.exp(-0.5 * x) / math.sqrt(abs(x * (1.0 - x)))

    rng = random.Random(20181021)
    tiny = [(0.0, 1e-9), (0.0, 2.0**-355), (2.0**-359, 2.0**-358), (0.0, 2.0**-400), (0.0, 2.0**-600)]
    pieces = quadrature._pieces(f, iv)
    assert len(pieces) == len(references(f))
    for (values, a, b), reference in zip(pieces, references(f)):
        starts = [a + (b - a) * rng.random() for _ in range(50)]
        panels = [(a, b)] + [(lo, lo + (b - lo) * rng.random()) for lo in starts]
        for lo, hi in panels + (tiny if a == 0.0 else []):
            _, xs = quadrature._nodes(lo, hi)
            want = [reference(x).hex() for x in xs]
            assert [v.hex() for v in values(xs)] == want, (iv, lo, hi)
            assert [values((x,))[0].hex() for x in xs] == want, (iv, lo, hi)


# Bits of one panel's (value, err, floor) for arithmetic-only integrands,
# so no libm function sits in the integrand; err still passes through
# the C library's pow.
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
]


def _plain_panel(f, a, b):
    """The engine's panel on [a, b] of an integrand f taken as it is."""
    return quadrature._panel(lambda xs: list(map(f, xs)), a, b)


@pytest.mark.parametrize("f, ab, pin", _PANEL_PINS)
def test_gk15_panel_bits_are_pinned(f, ab, pin):
    assert tuple(v.hex() for v in _plain_panel(f, *ab)) == pin


def _orthonormal_basis():
    """The K15 weights of the 15 nodes on [-1, 1] in ascending order, and the
    values there of the polynomials of degrees 0 to 14 orthonormal in the
    K15 inner product, by Gram-Schmidt on x q_(j-1), run twice."""
    xgk, wgk = quadrature._XGK, quadrature._WGK
    xs = [-x for x in xgk[:7]] + [0.0] + [x for x in reversed(xgk[:7])]
    ws = list(wgk[:7]) + [wgk[7]] + list(reversed(wgk[:7]))
    basis = []
    q = [1.0] * 15
    for _ in range(15):
        if basis:
            q = [x * v for x, v in zip(xs, basis[-1])]
        for _ in range(2):
            for b in basis:
                c = math.fsum(w * u * v for w, u, v in zip(ws, q, b))
                q = [u - c * v for u, v in zip(q, b)]
        norm = math.sqrt(math.fsum(w * u * u for w, u in zip(ws, q)))
        basis.append([u / norm for u in q])
    return ws, basis


_WS, _BASIS = _orthonormal_basis()


def _gk15_loop(g, a, b):
    """The panel with its sums as loops over the nodes, the reference for
    the written-out sums of quadrature._rule (finite values only), and
    whether it certified the panel at its roundoff floor: None when its
    estimate lies outside (floor, 1e4 floor], where no test is made."""
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
    certified = None
    if floor < err <= 1e4 * floor:
        # the pairs (9, 10), (11, 12), (13, 14) of the panel's coefficients
        # in the orthonormal basis must fall by at least 4 each, at worst
        # by r, and the predicted error 10 |half| E_13,14 r**4 meet the floor
        values = [f1 for f1, _ in pairs] + [fc] + [f2 for _, f2 in reversed(pairs)]
        coeff = [math.fsum(w * f * q for w, f, q in zip(_WS, values, p)) for p in _BASIS]
        e = [math.sqrt(coeff[j] ** 2 + coeff[j + 1] ** 2) for j in (9, 11, 13)]
        certified = False
        if e[1] <= e[0] / 4.0 and e[2] <= e[1] / 4.0:
            r = max(e[1] / e[0], e[2] / e[1]) if e[2] > 0.0 else 0.0
            certified = 10.0 * abs(half) * e[2] * r**4 <= floor
    if certified:
        err = floor
    return resk * half, max(err, floor), floor, certified


def test_gk15_panel_equals_its_loop_form():
    # panels of width 10**U(-9, 1), and of width 10**U(-1, 1), where many
    # estimates lie within 1e4 of their floor: both outcomes of the
    # certification must occur
    rng = random.Random(20181015)
    integrands = (
        lambda x: 1.0 / (1.0 + x * x),
        math.exp,
        lambda x: math.cos(3.0 * x) * math.exp(-x),
        lambda x: 0.0,
    )
    outcomes = collections.Counter()
    for f in integrands:
        for low in (-9.0, -1.0):
            for _ in range(200):
                a = rng.uniform(-5.0, 5.0)
                b = a + 10.0 ** rng.uniform(low, 1.0)
                got = [v.hex() for v in _plain_panel(f, a, b)]
                *want, certified = _gk15_loop(f, a, b)
                assert got == [v.hex() for v in want], (a, b)
                outcomes[certified] += 1
    assert outcomes[True] >= 40 and outcomes[False] >= 8, outcomes


def _panel_values(coefficients):
    """15 values in the order of _nodes: 1 plus the given coefficients, by
    degree, in the orthonormal basis."""
    values = [1.0 + math.fsum(c * _BASIS[j][i] for j, c in coefficients.items()) for i in range(15)]
    return [values[7]] + [values[k] for i in range(7) for k in (i, 14 - i)]


def test_certification_needs_decaying_coefficients():
    # the raw |K15 - G7| sees only degree 14, so both panels' estimates sit
    # about 5.5x above their floors. With the pairs (9, 10), (11, 12) and
    # (13, 14) falling 10x each, the predicted error 10 |half| E_13,14 r**4
    # is far below the floor and the panel is certified there; without
    # the r**4 it would not be. With (11, 12) as large as (9, 10), the
    # small last pair says nothing, and the estimate stands
    decaying = quadrature._rule(_panel_values({9: 1e-12, 11: 1e-13, 13: 1e-14, 14: 1e-15}), 0.5)
    assert decaying[1] == decaying[2]
    flat = quadrature._rule(_panel_values({9: 1e-12, 11: 1e-12, 14: 1e-15}), 0.5)
    assert 5.0 * flat[2] < flat[1] <= 1e4 * flat[2]


def test_decay_test_keeps_a_faint_narrow_line_above_its_floor():
    # a flat continuum under a Lorentzian line 4e-11 high and 1/65 wide: on
    # the left half of [0, 1] the line's null-rule pairs stall at 1e-13 to
    # 1e-14 of sum(w |f|), each above 1/4 of the one before. The predicted
    # error 10 |half| E_13,14 r**4 alone lies below the floor, so only the
    # decay test keeps the panel's estimate; certified at their floors, the
    # two halves would claim 1.1e-14 and err by 4.2e-14
    amp, width, centre = 4e-11, 65.0, 0.52

    def f(x):
        return 1.0 + amp / (1.0 + (width * (x - centre)) ** 2)

    mid, half = 0.25, 0.25
    xs = [mid - half * x for x in quadrature._XGK[:7]] + [mid] + [mid + half * x for x in reversed(quadrature._XGK[:7])]
    values = [f(x) for x in xs]
    unit = math.fsum(w * abs(v) for w, v in zip(_WS, values))
    coeff = [math.fsum(w * v * q for w, v, q in zip(_WS, values, p)) / unit for p in _BASIS]
    e = [math.hypot(coeff[j], coeff[j + 1]) for j in (9, 11, 13)]
    assert 1e-15 < e[2] < e[1] < e[0] < 1e-13
    assert e[1] > e[0] / 4.0 and e[2] > e[1] / 4.0
    r = max(e[1] / e[0], e[2] / e[1])
    assert 10.0 * e[2] * r**4 <= 50.0 * quadrature._EPS
    _, err, floor = _plain_panel(f, 0.0, 0.5)
    assert 10.0 * floor < err <= 1e4 * floor
    res = integrate(f, Interval(0.0, 1.0))
    exact = 1.0 + amp * (math.atan(width * (1.0 - centre)) + math.atan(width * centre)) / width
    assert res.converged and res.evals > 30
    assert abs(res.value - exact) <= res.error_estimate


def test_panel_stops_at_the_first_non_finite_node():
    # the NaN makes the one pass's panel NaN, so the panel goes node by
    # node: the centre first, then mid - dx and mid + dx for the outermost
    # node; the NaN at the third node ends the panel there
    dx = 0.5 * quadrature._XGK[0]
    calls = []

    def values(xs):
        calls.append(xs)
        return [math.nan if x == 0.5 + dx else 1.0 for x in xs]

    with pytest.raises(IntegrandError) as info:
        quadrature._panel(values, 0.0, 1.0)
    assert calls == [quadrature._nodes(0.0, 1.0)[1], (0.5,), (0.5 - dx,), (0.5 + dx,)]
    assert str(info.value) == f"non-finite integrand value at node {calls[3][0]!r}"


def test_panel_division_by_zero_names_the_node():
    node = 0.5 + 0.5 * quadrature._XGK[1]
    calls = []

    def g(x):
        calls.append(x)
        return 1.0 / (x - node)

    with pytest.raises(IntegrandError) as info:
        _plain_panel(g, 0.0, 1.0)
    # the one pass stops at the node, and so does the pass node by node
    assert calls[-1] == node and len(calls) == 10 and calls[:5] == calls[5:]
    assert str(info.value) == f"integrand division by zero at node {node!r}"
    assert info.value.__suppress_context__


def _slow(nodes):
    """Contour values of g = (1 + z)**-0.5005, with q's 1/sqrt(z + sqrt(z))
    about |z|**-1.0005 on the ray: in sigma that is about sigma**-0.999, so
    the ray's panels bisect towards sigma = 0 until its nodes pass the
    tiny-sigma guard, where g is finite at z = 0."""
    return [((1.0 + z) ** -0.5005 * q).imag for z, q in nodes]


_SMALL = QuadratureConfig(max_evals=15 * 800)
_NON_FINITE = "^non-finite integrand value at node"
_OVERFLOW = "^the GK15 sums overflow on"


@pytest.mark.parametrize(
    "run, guarded, error",
    [
        (lambda: integrate(math.exp, Interval(0.0, 1.0)), False, None),
        (lambda: integrate(lambda x: math.cos(x) / math.sqrt(x), Interval(0.0, 2.0, True)), False, None),
        (lambda: integrate(lambda x: math.exp(x) / math.sqrt(1.0 - x), Interval(-1.0, 1.0, False, True)), False, None),
        (lambda: integrate(lambda t: math.exp(-t), Interval(0.5, math.inf)), False, None),
        (lambda: integrate(lambda t: t**-1.0005, Interval(1.0, math.inf), _SMALL), True, None),
        (lambda: contour.hankel_exp_integral(1.0), False, None),
        (lambda: contour.hankel_resolvent_integral(0.5), False, None),
        (lambda: contour._upper_half(_slow, 0.5, _SMALL), True, None),
        (lambda: integrate(lambda x: math.nan if x > 0.75 else 1.0, Interval(0.0, 1.0)), False, _NON_FINITE),
        (lambda: contour._upper_half(lambda nodes: [math.nan for _ in nodes], 0.5, DEFAULT_CONFIG), False, _NON_FINITE),
        (lambda: integrate(lambda x: 1e308, Interval(0.0, 1.0)), False, _OVERFLOW),
    ],
    ids=[
        "plain",
        "singular-lower",
        "singular-upper",
        "semi-infinite",
        "semi-infinite-guarded",
        "contour-exp",
        "contour-resolvent",
        "contour-guarded",
        "failing",
        "contour-failing",
        "overflowing",
    ],
)
def test_every_panel_is_evaluated_at_one_site(monkeypatch, run, guarded, error):
    # integrate and the contour integrals evaluate every panel through
    # quadrature._panel, which applies the rule once: 15 evaluations a
    # panel, failing panels, panels whose sums overflow and panels with
    # guarded sigma nodes included
    counts = collections.Counter()
    panel, rule = quadrature._panel, quadrature._rule

    def counting_panel(values, a, b):
        counts["panel"] += 1
        counts["guarded"] += any(s * s * s == 0.0 for s in quadrature._nodes(a, b)[1])
        return panel(values, a, b)

    def counting_rule(f, half):
        counts["rule"] += 1
        return rule(f, half)

    monkeypatch.setattr(quadrature, "_panel", counting_panel)
    monkeypatch.setattr(quadrature, "_rule", counting_rule)
    if error:
        with pytest.raises(IntegrandError, match=error):
            run()
    else:
        est = run()
        assert 15 * counts["panel"] == est.evals
    assert counts["panel"] > 0 and counts["rule"] == counts["panel"]
    assert (counts["guarded"] > 0) == guarded


def test_overflow_names_the_node():
    # exp overflows on the compactified ray; the error names the node
    # in sigma and keeps the library's message
    with pytest.raises(IntegrandError) as info:
        integrate(math.exp, Interval(0.0, math.inf))
    match = re.fullmatch(r"integrand overflow at node (\S+): math range error", str(info.value))
    assert match and 0.0 < float(match[1]) < 1.0
    assert info.value.__suppress_context__


@pytest.mark.parametrize(
    "f, b, panel",
    [
        (lambda x: 1e308, 1.0, "[0.0, 0.5]"),
        (lambda x: 1.6e308 if x > 0.5 else -1.6e308, 1.0, "[0.0, 0.5]"),
        (lambda x: 1.6e308 if x > 0.5 else -1.6e308, 2.0, "[0.0, 1.0]"),
    ],
    ids=["value", "opposite-values", "error-estimate"],
)
def test_overflowing_sums_name_the_panel(f, b, panel):
    # every node is finite, but a panel's sums overflow: on [0, 1] K15's,
    # to an infinite value, and on [0, 2] the first panel's variation, to
    # a finite value with an infinite error estimate. Neither panel reaches
    # the engine, and the error names the panel
    with pytest.raises(IntegrandError) as info:
        integrate(f, Interval(0.0, b))
    assert str(info.value) == f"the GK15 sums overflow on {panel}"
    assert info.value.__context__ is None


@pytest.mark.parametrize(
    "f, b",
    [
        (lambda x: 0.8e308, 2.4),
        (lambda x: 0.5e308 if int(x * 1e6) % 2 else -0.5e308, 4.0),
    ],
    ids=["values", "error-estimates"],
)
def test_overflowing_total_of_finite_panels_raises(f, b):
    # each of the two panels is finite, but the total of their values (each
    # 0.96e308), or of their error estimates, is not; the engine says so
    # instead of fsum's bare "intermediate overflow"
    with pytest.raises(IntegrandError) as info:
        integrate(f, Interval(0.0, b), QuadratureConfig(max_evals=30))
    assert str(info.value) == "the GK15 panels' total overflows"
    assert info.value.__suppress_context__


def test_other_arithmetic_errors_propagate_unchanged():
    def g(x):
        raise ArithmeticError("did not converge")

    with pytest.raises(ArithmeticError) as info:
        _plain_panel(g, 0.0, 1.0)
    assert type(info.value) is ArithmeticError and str(info.value) == "did not converge"


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


def test_panels_at_their_roundoff_floor_converge():
    # exp on [0, 40] cannot be resolved below 50 eps times its size, far
    # above abs_tol; once every panel sits at that floor the result is
    # converged, with the floor in its error bar
    res = integrate(math.exp, Interval(0.0, 40.0), QuadratureConfig(abs_tol=1e-15))
    assert res.converged
    assert res.error_estimate > 1e-15
    assert abs(res.value - math.expm1(40.0)) <= res.error_estimate


def test_narrow_panel_above_its_floor_does_not_converge():
    # the values alternate whatever the node, so no panel settles; floats
    # near 1e16 lie 2 apart, so the two halves the range starts as are too
    # narrow to split after one bisection, with their estimates far above
    # their floors
    calls = itertools.count()
    res = integrate(lambda x: float(next(calls) % 2), Interval(1e16, 1e16 + 8.0))
    assert not res.converged
    assert res.evals == 90
    assert res.error_estimate > 1.0


@pytest.mark.parametrize(
    "f", [lambda x: 1.0 + 0.0j, lambda x: complex(math.cos(math.pi * x), math.sin(math.pi * x))]
)
def test_complex_integrand_is_rejected(f):
    with pytest.raises(IntegrandError, match="real integrands"):
        integrate(f, Interval(0.0, 2.0))
