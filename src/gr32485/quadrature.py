"""Adaptive one-dimensional quadrature for the integral representations.

Every integrand in this project is analytic on the open integration
interval; the only admissible endpoint misbehaviour is an inverse square
root blow-up, declared in advance through ``Interval`` flags. The engine
therefore never detects singularities at run time. It

* removes a flagged singular endpoint exactly with the substitution
  x = endpoint -/+ s**2, which maps smooth(x)/sqrt(|x - endpoint|)
  integrands onto smooth ones (working in the offset variable s also
  sidesteps the precision loss of forming ``x`` right next to a nonzero
  endpoint, which is what limits plain double-exponential rules to
  roughly 1e-8 in double precision),
* compactifies a semi-infinite range with t = lower + s/(1 - s) and
  treats the image of infinity as a sqrt-singular endpoint, which also
  resolves the t**(-3/2) algebraic tails that occur here,
* integrates the resulting smooth pieces with adaptive Gauss-Kronrod
  (G7, K15) bisection until the summed |K15 - G7| error estimate meets
  ``abs_tol`` or the evaluation budget runs out.

Results are deterministic functions of (integrand, interval, config).
The check runner may also set a wall-clock deadline for the current
context; bisection past it raises ``TimeoutError`` instead of returning.
"""

from __future__ import annotations

import cmath
import contextvars
import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Interval",
    "QuadratureConfig",
    "QuadratureResult",
    "ComplexQuadratureResult",
    "IntegrandError",
    "DEFAULT_CONFIG",
    "integrate",
    "integrate_complex",
]


class IntegrandError(ValueError):
    """The integrand returned a non-finite value at an interior node."""


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    singular_lower: bool = False
    singular_upper: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval endpoints must not be NaN")
        if math.isinf(self.lower):
            raise ValueError("the lower endpoint must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"degenerate interval [{self.lower}, {self.upper}]")
        if self.singular_upper and math.isinf(self.upper):
            raise ValueError("a singular upper endpoint must be finite")


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    max_evals: int = 200_000

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be > 0")
        if self.max_evals < 15:
            raise ValueError("max_evals must admit at least one 15-point panel")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evals: int
    converged: bool


@dataclass(frozen=True)
class ComplexQuadratureResult:
    value: complex
    error_estimate: float
    evals: int
    converged: bool


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


def _node(g: Callable, x: float):
    try:
        v = g(x)
    except ZeroDivisionError:
        raise IntegrandError(f"integrand division by zero at node {x!r}") from None
    if not cmath.isfinite(v):
        raise IntegrandError(f"non-finite integrand value at node {x!r}")
    return v


def _gk15(g: Callable, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = _node(g, mid)
    pairs = []
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        dx = half * _XGK[j]
        f1 = _node(g, mid - dx)
        f2 = _node(g, mid + dx)
        pairs.append((f1, f2))
        resk += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    err = abs((resk - resg) * half)
    # QUADPACK-style sharpening: rescale the raw |K15 - G7| gap by the
    # panel's own variation (so smooth panels are not re-split forever)
    # and floor it at the panel's roundoff level
    mean = resk * 0.5
    resasc = _WGK[7] * abs(fc - mean)
    resabs = _WGK[7] * abs(fc)
    for j in range(7):
        f1, f2 = pairs[j]
        resasc += _WGK[j] * (abs(f1 - mean) + abs(f2 - mean))
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    resasc *= abs(half)
    resabs *= abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs
    return resk * half, max(err, floor), floor


def _sub_lower(f: Callable, a: float, b: float) -> Callable:
    def g(s: float):
        x = a + s * s
        if x == a:
            x = math.nextafter(a, b)
        return 2.0 * s * f(x)

    return g


def _sub_upper(f: Callable, a: float, b: float) -> Callable:
    def g(s: float):
        x = b - s * s
        if x == b:
            x = math.nextafter(b, a)
        return 2.0 * s * f(x)

    return g


def _finite_pieces(f: Callable, a: float, b: float, sing_lo: bool, sing_hi: bool) -> list:
    if sing_lo and sing_hi:
        mid = 0.5 * (a + b)
        return _finite_pieces(f, a, mid, True, False) + _finite_pieces(f, mid, b, False, True)
    if sing_lo:
        return [(_sub_lower(f, a, b), 0.0, math.sqrt(b - a))]
    if sing_hi:
        return [(_sub_upper(f, a, b), 0.0, math.sqrt(b - a))]
    return [(f, a, b)]


def _pieces(f: Callable, iv: Interval) -> list:
    if math.isinf(iv.upper):
        a = iv.lower

        def g(s: float, _f=f, _a=a):
            u = 1.0 - s
            t = _a + s / u
            if not math.isfinite(t):
                # image of infinity; a convergent improper integrand vanishes there
                return 0.0
            return _f(t) / (u * u)

        return _finite_pieces(g, 0.0, 1.0, iv.singular_lower, True)
    return _finite_pieces(f, iv.lower, iv.upper, iv.singular_lower, iv.singular_upper)


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
    f: Callable[[float], float],
    iv: Interval,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate f over iv to within cfg.abs_tol (absolute, with high confidence).

    Endpoints flagged singular are never evaluated; integrands may blow up
    there no faster than the -1/2 power of the distance to the endpoint.
    """
    value, err, evals, ok = _adaptive(_pieces(f, iv), cfg)
    return QuadratureResult(float(value), err, evals, ok)


def integrate_complex(
    f: Callable[[float], complex],
    iv: Interval,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> ComplexQuadratureResult:
    """Same engine as :func:`integrate` for a complex-valued integrand of a real parameter."""
    value, err, evals, ok = _adaptive(_pieces(f, iv), cfg)
    return ComplexQuadratureResult(complex(value), err, evals, ok)
