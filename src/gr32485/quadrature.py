"""Adaptive one-dimensional quadrature for the integral representations.

Every integrand in this project is real and analytic on the open
interval; the only admissible endpoint misbehaviour is an inverse square
root blow-up, declared in advance through ``Interval`` flags. The engine
therefore never detects singularities at run time. It

* removes a singular lower endpoint, which must sit at 0, with the
  substitution x = s**2. The integrand receives the exact offset from
  the endpoint, so an integrand written in that offset keeps its full
  relative precision next to the singularity,
* removes a singular upper endpoint b with x = b - s**2. The integrand
  receives ``x``, not the offset s**2; an integrand that recomputes
  ``b - x`` loses the offset's relative precision, so the result can be
  less accurate than its error estimate claims. A node that rounds onto
  either singular endpoint is moved to the float next to it inside the
  interval, even where b - 1 rounds to b. Rounded s*s and b - s*s are
  monotone in s >= 0, so a panel tests only its least node: when that
  node maps off the endpoint, every node does,
* compactifies a semi-infinite range [a, inf) with t = a - 1 + 1/sigma**2
  on sigma in (0, 1]. Its Jacobian 2/sigma**3 cancels the t**(-3/2)
  algebraic tails that occur here, so the image of infinity is a regular
  endpoint; ``_compact_nodes`` maps the nodes, for the Hankel contour's
  ray too. A range [0, inf) singular at 0 is split once at 1,
* integrates the resulting smooth pieces with adaptive Gauss-Kronrod
  (G7, K15) bisection, each piece starting as its two halves, until the
  summed |K15 - G7| error estimate meets ``abs_tol``, or every panel left
  is exact or parked at its roundoff floor, which its error bar then
  holds; never once the budget runs out or while a panel too narrow to
  split sits above its floor. When the starting panels already meet
  ``abs_tol``, their totals are returned at once, the bits the loop
  would give: the totals are correctly rounded sums.

A panel's error estimate is QUADPACK's: the |K15 - G7| gap rescaled by
the panel's variation resasc, as resasc * min(1, (200 gap / resasc)**1.5),
and never below the roundoff floor 50 eps * int |f| over the panel. On
smooth panels that estimate over-claims, a median 75x on theta-form
elliptic integrals, and a panel already at roundoff would be bisected
again. So a panel whose estimate lies above its floor and within 1e4 of
it checks K15's convergence from its own 15 values, with null rules
(Berntsen and Espelid 1991, ACM TOMS 17:233): its coefficients of
degrees 9 to 14 in the discrete Legendre basis orthonormal in the K15
inner product, paired as (9, 10), (11, 12) and (13, 14), each pair's
magnitude E the root of its sum of squares. When each pair is at most
1/4 of the one before, the worst ratio being r, and the predicted K15
error 10 |half| E_13,14 r**4 is at most the floor, the estimate is set
to the floor and the panel is parked; otherwise it stands. The test can
only lower an estimate, and only to the floor, which no estimate goes
below.

The estimate stays a heuristic. A kink lies outside the engine's
contract: the integral of |x - 0.502| over [0, 1] claims 2.8e-15 at an
error of 4.0e-6. And an oscillation far below a smooth integrand's
variation is under-claimed: for exp(x) + A cos(w x + phi) on [0, 1],
with A = 10**U(-13, -8) and w in [20, 400], 1,667 of 3,000 seeded draws
err beyond their claims, by up to 3.2e4 times.

A piece is (values, a, b), values(nodes) its values at a tuple of nodes.
``_panel``, the one place where a panel is evaluated, takes its 15 values
in one pass. A panel whose values fail, or whose value or error estimate
is not finite, goes again node by node, and an ``IntegrandError`` names
its first bad node, or the panel when its sums overflowed, or the
panels when their total does. A substituted piece names them in its own
variable: s next to a singular endpoint, sigma on a compactified range,
not x.

Results are deterministic functions of (integrand, interval, config).
The check runner sets a memo for its run, in which the functions marked
``_once`` keep their values, so that a quantity several checks share is
computed once per run; outside a run every call computes.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import heapq
import math
import operator
from collections.abc import Callable

__all__ = [
    "Interval",
    "QuadratureConfig",
    "Estimate",
    "IntegrandError",
    "DEFAULT_CONFIG",
    "integrate",
]


class IntegrandError(ValueError):
    """The integrand failed or was not finite at a node, or a panel's sums
    or the panels' total overflowed."""


class Interval(collections.namedtuple("Interval", "lower upper singular_lower singular_upper", defaults=(False, False))):
    """An integration range with its inverse-square-root endpoint flagged:
    a singular lower endpoint must be 0, and at most one end is singular."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        iv = super().__new__(cls, *args, **kwargs)
        if math.isnan(iv.lower) or math.isnan(iv.upper):
            raise ValueError("interval endpoints must not be NaN")
        if math.isinf(iv.lower):
            raise ValueError("the lower endpoint must be finite")
        if not iv.lower < iv.upper:
            raise ValueError(f"degenerate interval [{iv.lower}, {iv.upper}]")
        if iv.singular_upper and math.isinf(iv.upper):
            raise ValueError("a singular upper endpoint must be finite")
        if iv.singular_lower and iv.lower != 0.0:
            raise ValueError("a singular lower endpoint must be 0")
        if iv.singular_lower and iv.singular_upper:
            raise ValueError("at most one endpoint may be singular")
        return iv

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it passes the checks too
        return cls(*iterable)


class QuadratureConfig(collections.namedtuple("QuadratureConfig", "abs_tol max_evals", defaults=(1e-12, 200_000))):
    """The engine's absolute tolerance and integrand-evaluation budget; the
    budget admits at least one piece's two 15-point panels."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(cfg.abs_tol) and cfg.abs_tol > 0.0):
            raise ValueError("abs_tol must be a positive finite number")
        if not isinstance(cfg.max_evals, int):
            raise ValueError(f"max_evals must be an integer, got {cfg.max_evals!r}")
        if cfg.max_evals < 30:
            raise ValueError("max_evals must admit one piece's two 15-point panels")
        return cfg

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


DEFAULT_CONFIG = QuadratureConfig()


Estimate = collections.namedtuple("Estimate", "value error_estimate evals converged")
Estimate.__doc__ = """A computed value with its absolute error bound and its cost.

    ``evals`` counts integrand evaluations for quadrature and contour
    integrals, and terms for series.
    """


def _linear(terms, const: float = 0.0, extra_err: float = 0.0) -> Estimate:
    """const + sum(c * est) over the (c, est) pairs in terms.

    Its error bound is sum(|c| * est.error_estimate) plus extra_err, the
    bound on whatever else the combination leaves out; its evals are the
    parts' evals summed, and it converged when every part did.
    """
    values, errors = [], []
    evals, converged = 0, True
    for c, (value, error, n, ok) in terms:
        values.append(c * value)
        errors.append(abs(c) * error)
        evals += n
        if not ok:
            converged = False
    return Estimate(const + math.fsum(values), math.fsum(errors) + extra_err, evals, converged)


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.12948496616886969,
    0.2797053914892767,
    0.3818300505051189,
    0.41795918367346935,
)


def _null_rules() -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
    """The null rules of degrees 9 to 14, as the pairs (9, 10), (11, 12) and
    (13, 14): weights that take a panel's values to its discrete Legendre
    coefficients in the K15 inner product.

    p_j is the Legendre polynomial P_j less its K15 projection onto the
    p_k of lower degree, and the coefficient of degree j is
    <f, p_j> / sqrt(<p_j, p_j>), its coefficient in the orthonormal basis.
    K15 integrates degree 22 exactly, so p_j = P_j through j = 12. An odd
    rule's 7 weights apply to the pair differences f(mid + d) - f(mid - d)
    and an even rule's 8 to the centre value and the pair sums, outermost
    first. Only correctly rounded operations are used, so the weights are
    the same bits on every Python."""
    xs, ws = _XGK, _WGK
    # P_j at the nonnegative nodes, outermost first and the centre last
    legendre = [[1.0] * 8, list(xs)]
    for j in range(1, 14):
        legendre.append([((2 * j + 1) * x * p1 - j * p0) / (j + 1) for x, p1, p0 in zip(xs, legendre[j], legendre[j - 1])])

    def dot(u, v):  # K15 inner product of two even or two odd functions
        return math.fsum([(w if i == 7 else 2.0 * w) * a * b for i, (w, a, b) in enumerate(zip(ws, u, v))])

    ps = []
    for j, p in enumerate(legendre):
        for q in ps[j % 2 :: 2]:
            c = dot(p, q) / dot(q, q)
            p = [a - c * b for a, b in zip(p, q)]
        ps.append(p)
    rules = []
    for j in range(9, 15):
        norm = math.sqrt(dot(ps[j], ps[j]))
        nu = [w * p / norm for w, p in zip(ws, ps[j])]
        rules.append(tuple(nu[:7]) if j % 2 else (nu[7], *nu[:7]))
    return tuple(zip(rules[::2], rules[1::2]))


_NULL = _null_rules()


_EPS = 2.220446049250313e-16

# Values of the _once functions, keyed on (function, arguments). The check
# runner sets a fresh dict for its run and resets it when the run ends;
# elsewhere it stays None and every call computes.
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("memo", default=None)


def _once(fn: Callable) -> Callable:
    """fn, computed at most once per argument tuple within a run of the
    check runner. Values are kept and exceptions are not, so a call that
    raised computes again when it is repeated."""

    @functools.wraps(fn)
    def once(*args, **kwargs):
        memo = _MEMO.get()
        if memo is None:
            return fn(*args, **kwargs)
        key = (fn, args, tuple(kwargs.items()))
        if key not in memo:
            memo[key] = fn(*args, **kwargs)
        return memo[key]

    return once


def _nodes(a: float, b: float) -> tuple[float, tuple[float, ...]]:
    """Half the width of [a, b] and its nodes, the centre first, then pair by pair."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    d0, d1, d2, d3 = half * x0, half * x1, half * x2, half * x3
    d4, d5, d6 = half * x4, half * x5, half * x6
    return half, (
        mid,
        mid - d0, mid + d0, mid - d1, mid + d1, mid - d2, mid + d2, mid - d3,
        mid + d3, mid - d4, mid + d4, mid - d5, mid + d5, mid - d6, mid + d6,
    )


def _rule(f, half: float):
    """The panel from its 15 values f, in the order of ``_nodes``.

    ``_panel`` forms a panel [a, b] only with a < b, so half = (b - a)/2 is
    never negative: positive, or +0.0 when b - a is the least subnormal.
    The sums therefore scale by half where |half| would give the same bits.
    """
    fc, a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6 = f
    # the sums are written out term by term, in the order of a loop from
    # the centre outwards: for a cheap integrand the panel's arithmetic
    # outweighs its 15 evaluations, and a loop would cost more again
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    s1, s3, s5 = a1 + b1, a3 + b3, a5 + b5
    resk = (
        w7 * fc + w0 * (a0 + b0) + w1 * s1 + w2 * (a2 + b2)
        + w3 * s3 + w4 * (a4 + b4) + w5 * s5 + w6 * (a6 + b6)
    )
    resg = _WG[3] * fc + _WG[0] * s1 + _WG[1] * s3 + _WG[2] * s5
    err = abs(resk - resg) * half
    # QUADPACK-style sharpening: rescale the raw |K15 - G7| gap by the
    # panel's own variation (so smooth panels are not re-split forever)
    # and floor it at the panel's roundoff level
    mean = resk * 0.5
    resasc = (
        w7 * abs(fc - mean)
        + w0 * (abs(a0 - mean) + abs(b0 - mean)) + w1 * (abs(a1 - mean) + abs(b1 - mean))
        + w2 * (abs(a2 - mean) + abs(b2 - mean)) + w3 * (abs(a3 - mean) + abs(b3 - mean))
        + w4 * (abs(a4 - mean) + abs(b4 - mean)) + w5 * (abs(a5 - mean) + abs(b5 - mean))
        + w6 * (abs(a6 - mean) + abs(b6 - mean))
    ) * half
    resabs = (
        w7 * abs(fc)
        + w0 * (abs(a0) + abs(b0)) + w1 * (abs(a1) + abs(b1)) + w2 * (abs(a2) + abs(b2))
        + w3 * (abs(a3) + abs(b3)) + w4 * (abs(a4) + abs(b4)) + w5 * (abs(a5) + abs(b5))
        + w6 * (abs(a6) + abs(b6))
    ) * half
    if resasc != 0.0 and err != 0.0:
        # resasc * min(1, x**1.5), with x**1.5 < 1 exactly when x < 1
        x = 200.0 * err / resasc
        err = resasc * x**1.5 if x < 1.0 else resasc
    floor = 50.0 * _EPS * resabs
    if floor < err <= 1e4 * floor:
        # certify the panel at its floor when its null-rule coefficients
        # decay fast enough to put K15's error below it; coefficients are in
        # units of sum(w |f|), so that their squares neither overflow nor
        # underflow. Each pair must be at most 1/4 of the one before, so
        # the pairs are formed one at a time, up to the first that is not
        unit = half / resabs
        s0, s2, s4, s6 = a0 + b0, a2 + b2, a4 + b4, a6 + b6
        d0, d1, d2, d3, d4, d5, d6 = b0 - a0, b1 - a1, b2 - a2, b3 - a3, b4 - a4, b5 - a5, b6 - a6
        e = []
        for (u0, u1, u2, u3, u4, u5, u6), (vc, v0, v1, v2, v3, v4, v5, v6) in _NULL:
            odd = unit * abs(u0 * d0 + u1 * d1 + u2 * d2 + u3 * d3 + u4 * d4 + u5 * d5 + u6 * d6)
            even = unit * abs(vc * fc + v0 * s0 + v1 * s1 + v2 * s2 + v3 * s3 + v4 * s4 + v5 * s5 + v6 * s6)
            pair = odd * odd + even * even
            if e and not 16.0 * pair <= e[-1]:
                break
            e.append(pair)
        else:
            # the worst ratio r; the error of K15 is predicted as
            # 10 |half| E_13,14 r**4
            e0, e1, e2 = e
            q1, q2 = (e1 / e0, e2 / e1) if e2 else (0.0, 0.0)
            r2 = q2 if q2 > q1 else q1
            if 10.0 * math.sqrt(e2) * (r2 * r2) <= 50.0 * _EPS:
                err = floor
    return resk * half, floor if floor > err else err, floor


def _compact_nodes(c: float, sigmas) -> list:
    """(t, sigma**3) at each node sigma of t = c + 1/sigma**2; None where sigma**3
    underflows or t is not finite, as near the image of infinity a convergent
    improper integrand vanishes."""
    return [
        None if (s3 := s * s * s) == 0.0 or not math.isfinite(t := c + 1.0 / (s * s)) else (t, s3)
        for s in sigmas
    ]


def _pieces(f: Callable, iv: Interval) -> list:
    a, b = iv.lower, iv.upper
    if iv.singular_lower and math.isinf(b):
        return _pieces(f, Interval(0.0, 1.0, True)) + _pieces(f, Interval(1.0, b))
    # x = s**2 or x = b - s**2 moves away from the singular endpoint, which
    # is never evaluated: a node that rounds onto it takes the float next to
    # it inside the interval instead. The guard runs per node only on a
    # panel whose least node lo, second in the order of _nodes, maps onto
    # the endpoint (see the module docstring)
    if iv.singular_lower:
        inner = math.nextafter(0.0, b)

        def in_s(ss):
            lo = ss[1] if len(ss) == 15 else min(ss)
            if lo * lo != 0.0:
                return [2.0 * s * f(s * s) for s in ss]
            return [2.0 * s * f(x if (x := s * s) != 0.0 else inner) for s in ss]

        return [(in_s, 0.0, math.sqrt(b))]
    if iv.singular_upper:
        inner = math.nextafter(b, a)

        def in_s(ss):
            lo = ss[1] if len(ss) == 15 else min(ss)
            if b - lo * lo != b:
                return [2.0 * s * f(b - s * s) for s in ss]
            return [2.0 * s * f(x if (x := b - s * s) != b else inner) for s in ss]

        return [(in_s, 0.0, math.sqrt(b - a))]
    if math.isinf(b):
        c = a - 1.0

        def in_sigma(ss):
            return [0.0 if n is None else 2.0 * f(n[0]) / n[1] for n in _compact_nodes(c, ss)]

        return [(in_sigma, 0.0, 1.0)]
    return [(lambda xs: list(map(f, xs)), a, b)]


def _panel(values: Callable, a: float, b: float):
    """The GK15 panel (value, error estimate, roundoff floor) on [a, b] of a
    piece's values, in one pass, with a finite value and error estimate. A
    panel that fails goes again node by node to name its first bad node;
    if all are finite, its sums overflowed, and the error names the panel."""
    half, xs = _nodes(a, b)
    try:
        est = _rule(values(xs), half)
        if est[0] - est[0] == est[1] - est[1] == 0.0:  # value and error finite
            return est
    except (ZeroDivisionError, OverflowError):
        pass
    for x in xs:
        try:
            (v,) = values((x,))
        except ZeroDivisionError:
            raise IntegrandError(f"integrand division by zero at node {x!r}") from None
        except OverflowError as exc:
            raise IntegrandError(f"integrand overflow at node {x!r}: {exc}") from None
        if v - v != 0.0:  # inf or nan
            raise IntegrandError(f"non-finite integrand value at node {x!r}")
    raise IntegrandError(f"the GK15 sums overflow on [{a!r}, {b!r}]")


def _total(terms) -> float:
    """The correctly rounded sum of finite panel values or error estimates."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise IntegrandError("the GK15 panels' total overflows") from None
    except TypeError:
        raise IntegrandError("complex integrand values; integrate takes real integrands") from None


# a panel is the heap item (-err, seq, values, a, b, val, err, floor)
_VAL, _ERR = operator.itemgetter(5), operator.itemgetter(6)


def _adaptive(pieces: list, cfg: QuadratureConfig) -> Estimate:
    abs_tol, max_evals = cfg
    if 30 * len(pieces) > max_evals:
        raise ValueError("max_evals too small for the interval decomposition")
    heap = []
    parked = []  # panels too narrow to bisect, or at their roundoff floor
    seq = 0  # panels evaluated, 15 integrand evaluations each; unique, so items never tie
    # a piece starts as its two halves, the panels QUADPACK's first
    # bisection would make: one root panel is nearly always split at once
    for values, a, b in pieces:
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            val, err, floor = _panel(values, lo, hi)
            seq += 1
            heap.append((-err, seq, values, lo, hi, val, err, floor))
    err_total = _total(map(_ERR, heap))
    if err_total <= abs_tol:
        # the starting panels meet abs_tol: the loop would not run, and the
        # totals below would sum these same panels
        return Estimate(_total(map(_VAL, heap)), err_total, 15 * seq, True)

    heapq.heapify(heap)
    while err_total > abs_tol and heap:
        worst = heap[0]
        _, _, values, a, b, _, old_err, old_floor = worst
        if old_err <= 0.0 or 15 * seq + 30 > max_evals:
            break
        mid = 0.5 * (a + b)
        if not (a < mid < b) or old_err <= 1.05 * old_floor:
            # too narrow to bisect, or the estimate already sits at the
            # panel's roundoff floor where splitting cannot help
            heapq.heappop(heap)
            parked.append(worst)
            continue
        lval, lerr, lfloor = _panel(values, a, mid)
        rval, rerr, rfloor = _panel(values, mid, b)
        err_total = err_total - old_err + lerr + rerr
        # the keys (-err, seq) are unique, so which call sifts an item
        # cannot change the order panels leave the heap in
        heapq.heapreplace(heap, (-lerr, seq + 1, values, a, mid, lval, lerr, lfloor))
        heapq.heappush(heap, (-rerr, seq + 2, values, mid, b, rval, rerr, rfloor))
        seq += 2

    # fsum is correctly rounded, so the panels' order cannot move a bit
    panels = heap + parked
    value = _total(map(_VAL, panels))
    err_total = _total(map(_ERR, panels))
    converged = err_total <= abs_tol or (
        # every panel left is exact or parked at its roundoff floor
        (not heap or heap[0][6] <= 0.0) and all(p[6] <= 1.05 * p[7] for p in parked)
    )
    return Estimate(value, err_total, 15 * seq, converged)


def integrate(
    f: Callable[[float], float],
    iv: Interval,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Estimate:
    """Integrate f over iv to within cfg.abs_tol (absolute, with high confidence).

    f must be real valued and is never evaluated at an endpoint flagged
    singular, where it may blow up no faster than the -1/2 power of the
    distance to the endpoint.
    """
    return _adaptive(_pieces(f, iv), cfg)
