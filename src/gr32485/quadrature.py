"""Adaptive one-dimensional quadrature for the integral representations.

Every integrand in this project is analytic on the open integration
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
  less accurate than its error estimate claims,
* compactifies a semi-infinite range [a, inf) with t = a - 1 + 1/sigma**2
  on sigma in (0, 1]. Its Jacobian 2/sigma**3 cancels the t**(-3/2)
  algebraic tails that occur here, so the image of infinity is a regular
  endpoint. A range [0, inf) singular at 0 is split once at 1,
* integrates the resulting smooth pieces with adaptive Gauss-Kronrod
  (G7, K15) bisection until the summed |K15 - G7| error estimate meets
  ``abs_tol`` or the evaluation budget runs out.

Results are deterministic functions of (integrand, interval, config).
The check runner may also set a wall-clock deadline for the current
context; bisection past it raises ``TimeoutError`` instead of returning.
It also sets a memo for its run, in which the functions marked ``_once``
keep their values, so that a quantity several checks share is computed
once per run; outside a run every call computes.
"""

from __future__ import annotations

import cmath
import contextvars
import functools
import heapq
import math
import time
from typing import Callable, NamedTuple

__all__ = [
    "Interval",
    "QuadratureConfig",
    "Estimate",
    "IntegrandError",
    "DEFAULT_CONFIG",
    "integrate",
]


class IntegrandError(ValueError):
    """The integrand returned a non-finite value at an interior node."""


class _IntervalFields(NamedTuple):
    lower: float
    upper: float
    singular_lower: bool = False
    singular_upper: bool = False


class Interval(_IntervalFields):
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


class _QuadratureConfigFields(NamedTuple):
    abs_tol: float = 1e-12
    max_evals: int = 200_000


class QuadratureConfig(_QuadratureConfigFields):
    """The engine's absolute tolerance and integrand-evaluation budget."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(cfg.abs_tol) and cfg.abs_tol > 0.0):
            raise ValueError("abs_tol must be a positive finite number")
        if not isinstance(cfg.max_evals, int):
            raise ValueError(f"max_evals must be an integer, got {cfg.max_evals!r}")
        if cfg.max_evals < 15:
            raise ValueError("max_evals must admit at least one 15-point panel")
        return cfg

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


DEFAULT_CONFIG = QuadratureConfig()


class Estimate(NamedTuple):
    """A computed value with its absolute error bound and its cost.

    ``evals`` counts integrand evaluations for quadrature and contour
    integrals, and terms for series.
    """

    value: float | complex
    error_estimate: float
    evals: int
    converged: bool


def _linear(terms, const: float = 0.0, extra_err: float = 0.0) -> Estimate:
    """const + sum(c * est) over the (c, est) pairs in terms.

    Its error bound is sum(|c| * est.error_estimate) plus extra_err, the
    bound on whatever else the combination leaves out; its evals are the
    parts' evals summed, and it converged when every part did.
    """
    terms = list(terms)
    return Estimate(
        const + sum(c * est.value for c, est in terms),
        sum(abs(c) * est.error_estimate for c, est in terms) + extra_err,
        sum(est.evals for _, est in terms),
        all(est.converged for _, est in terms),
    )


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


_EPS = 2.220446049250313e-16

# time.monotonic() instant after which _adaptive stops bisecting. The
# check runner sets it around each check; elsewhere it stays infinite and
# the engine never reads the clock.
_DEADLINE: contextvars.ContextVar[float] = contextvars.ContextVar("deadline", default=math.inf)

# Values of the _once functions, keyed on (function, arguments). The check
# runner sets a fresh dict for its run and resets it when the run ends;
# elsewhere it stays None and every call computes.
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("memo", default=None)


def _once(fn: Callable) -> Callable:
    """fn, computed at most once per argument tuple within a run of the
    check runner. Values are kept and exceptions are not, so a call that
    raised, a timeout among them, computes again when it is repeated."""

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


def _gk15(g: Callable, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    d0, d1, d2, d3 = half * x0, half * x1, half * x2, half * x3
    d4, d5, d6 = half * x4, half * x5, half * x6
    # the centre first, then the nodes pair by pair; a bad value stops
    # the panel before the next node is evaluated
    isfinite = cmath.isfinite
    f = []
    for x in (
        mid,
        mid - d0, mid + d0, mid - d1, mid + d1, mid - d2, mid + d2, mid - d3,
        mid + d3, mid - d4, mid + d4, mid - d5, mid + d5, mid - d6, mid + d6,
    ):
        try:
            v = g(x)
        except ZeroDivisionError:
            raise IntegrandError(f"integrand division by zero at node {x!r}") from None
        if not isfinite(v):
            raise IntegrandError(f"non-finite integrand value at node {x!r}")
        f.append(v)
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
    err = abs((resk - resg) * half)
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
    ) * abs(half)
    resabs = (
        w7 * abs(fc)
        + w0 * (abs(a0) + abs(b0)) + w1 * (abs(a1) + abs(b1)) + w2 * (abs(a2) + abs(b2))
        + w3 * (abs(a3) + abs(b3)) + w4 * (abs(a4) + abs(b4)) + w5 * (abs(a5) + abs(b5))
        + w6 * (abs(a6) + abs(b6))
    ) * abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs
    return resk * half, max(err, floor), floor


def _sub(f: Callable, end: float, step: float) -> Callable:
    """The integrand in s, where x = end + step * s**2 moves away from a
    singular endpoint, which is never evaluated."""

    def g(s: float):
        x = end + step * (s * s)
        if x == end:
            x = math.nextafter(end, end + step)
        return 2.0 * s * f(x)

    return g


def _compact(f: Callable, a: float) -> Callable:
    """The integrand on [a, inf) in sigma, where t = a - 1 + 1/sigma**2."""

    def g(sigma: float):
        s3 = sigma * sigma * sigma
        # near the image of infinity a convergent improper integrand vanishes
        if s3 == 0.0 or not math.isfinite(t := a - 1.0 + 1.0 / (sigma * sigma)):
            return 0.0
        return 2.0 * f(t) / s3

    return g


def _pieces(f: Callable, iv: Interval) -> list:
    a, b = iv.lower, iv.upper
    if iv.singular_upper:
        return [(_sub(f, b, -1.0), 0.0, math.sqrt(b - a))]
    if iv.singular_lower and math.isinf(b):
        return _pieces(f, Interval(0.0, 1.0, True)) + _pieces(f, Interval(1.0, b))
    if iv.singular_lower:
        return [(_sub(f, 0.0, 1.0), 0.0, math.sqrt(b))]
    return [(_compact(f, a), 0.0, 1.0)] if math.isinf(b) else [(f, a, b)]


def _adaptive(pieces: list, cfg: QuadratureConfig):
    if 15 * len(pieces) > cfg.max_evals:
        raise ValueError("max_evals too small for the interval decomposition")
    deadline = _DEADLINE.get()
    heap = []
    parked = []  # panels too narrow to bisect further
    seq = 0
    evals = 0
    for idx, (g, a, b) in enumerate(pieces):
        val, err, floor = _gk15(g, a, b)
        evals += 15
        seq += 1
        heapq.heappush(heap, (-err, seq, idx, a, b, val, err, floor))

    err_total = math.fsum(item[6] for item in heap)
    while err_total > cfg.abs_tol and heap:
        worst = heap[0]
        if worst[6] <= 0.0:
            break
        if evals + 30 > cfg.max_evals:
            break
        if deadline != math.inf and time.monotonic() > deadline:
            raise TimeoutError(f"deadline passed after {evals} integrand evaluations")
        _, _, idx, a, b, _, old_err, old_floor = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if not (a < mid < b) or old_err <= 1.05 * old_floor:
            # too narrow to bisect, or the estimate already sits at the
            # panel's roundoff floor where splitting cannot help
            parked.append(worst)
            continue
        g = pieces[idx][0]
        err_total -= old_err
        for lo, hi in ((a, mid), (mid, b)):
            val, err, floor = _gk15(g, lo, hi)
            evals += 15
            seq += 1
            err_total += err
            heapq.heappush(heap, (-err, seq, idx, lo, hi, val, err, floor))

    panels = sorted(heap + parked, key=lambda item: (item[2], item[3]))
    values = [item[5] for item in panels]
    if values and isinstance(values[0], complex):
        value = complex(
            math.fsum(v.real for v in values), math.fsum(v.imag for v in values)
        )
    else:
        value = math.fsum(values)
    err_total = math.fsum(item[6] for item in panels)
    return value, err_total, evals, err_total <= cfg.abs_tol


def integrate(
    f: Callable[[float], float | complex],
    iv: Interval,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Estimate:
    """Integrate f over iv to within cfg.abs_tol (absolute, with high confidence).

    f may be real or complex valued; the value has the type of f's values.
    Endpoints flagged singular are never evaluated; integrands may blow up
    there no faster than the -1/2 power of the distance to the endpoint.
    """
    return Estimate(*_adaptive(_pieces(f, iv), cfg))
