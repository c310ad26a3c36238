"""Principal-branch arithmetic on the cut plane and Hankel-contour integrals.

The cut plane Omega is the complex plane minus the closed negative real
axis; sqrt denotes the principal branch (|arg z| < pi). On Omega the
combination z + sqrt(z) never meets the cut, so sqrt(z + sqrt(z)) is
analytic there.

The contour H encircles the negative real axis counterclockwise at
distance delta, 0.5 unless a caller of the exponential integral picks
another: two horizontal rays at Im z = -/+ delta joined by the right
half of the circle |z| = delta. Every integrand here is real on the
positive real axis, so its value at conj(z) is the conjugate of its
value at z. The lower half of H is the mirror image of the upper half
run backwards, so it contributes the negated conjugate of the upper
half, and

    (1/(2 pi i)) int_H = Im(int over the upper half) / pi.

The adaptive contour integrals therefore integrate only the imaginary
part of the integrand times gamma' on the upper half, parametrized as

    gamma(xi) = delta * exp(i pi xi / 2)    for 0 <= xi <= 1   (arc)
    gamma(x)  = delta * (-x + i)            for x >= 0         (upper ray)

as real functions, and count its error estimate twice. The ray runs
over the engine's compact variable sigma in (0, 1], x = -1 + 1/sigma**2,
and takes its nodes from the engine's compact map itself, whether the
integrand decays exponentially or only algebraically along it, so no
tail is discarded. A GK15 panel's nodes, each z with one weight that
folds in 1/sqrt(z + sqrt(z)) and the part's Jacobian, sit in node
tables, one per delta and part, that last for a run of the check
runner, so every contour integral at one delta reads its panels from
one dyadic tree; elsewhere each call fills fresh ones. A table is keyed
on a panel's centre node. Each part starts from [0, 1] and only bisects,
so its panels are dyadic subintervals, and the centre k/2^m, k odd,
names one panel alone. Each integral computes a panel's values in one
comprehension over its node pairs, with its integrand written into it.

For S(t) = (1/(2 pi i)) int_H exp(t z) / sqrt(z + sqrt(z)) dz at larger t
there is also a fixed-node rule, :func:`hankel_hyperbolic`: the trapezoid
rule on the hyperbola z(u) = mu (1 + sin(i u - alpha)) with the
parameters Weideman and Trefethen (2007, Math. Comp. 76:1341) optimized
for a transform analytic off the negative real axis. Its error decays
like exp(-1.358 N) in the node count N; by the same symmetry only the
nodes u >= 0 are evaluated, and they lie off the cut.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable

from .quadrature import DEFAULT_CONFIG, Estimate, QuadratureConfig, _adaptive, _compact_nodes, _linear, _once

__all__ = [
    "principal_sqrt",
    "nested_radical",
    "hankel_exp_integral",
    "hankel_resolvent_integral",
    "hankel_hyperbolic",
    "HYPERBOLIC_ERROR",
]


def principal_sqrt(z: complex) -> complex:
    """Principal square root on the cut plane; the closed negative real
    axis (including 0) and a z with a non-finite part are domain errors."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"principal_sqrt: z must be finite, got {z!r}")
    if z == 0 or (z.real < 0.0 and z.imag == 0.0):
        raise ValueError(f"principal_sqrt: {z!r} lies on the branch cut")
    return cmath.sqrt(z)


def nested_radical(z: complex) -> complex:
    """sqrt(z + sqrt(z)) with principal branches; well defined on all of
    Omega because z + sqrt(z) never meets the cut there. Both square
    roots reject the cut and non-finite input as :func:`principal_sqrt`
    does."""
    return principal_sqrt(z + principal_sqrt(z))


# gamma(xi) = delta * exp(_ARC * xi) on the arc, so gamma'(xi) = delta * _ARC * exp(_ARC * xi)
_ARC = 0.5j * math.pi
_DELTA = 0.5  # the resolvent's contour distance and the exponential integral's default


@_once
def _node_table(name: str, delta: float) -> dict:
    return {}  # a part's node table: kept for a run, fresh elsewhere


def _upper_half(values: Callable[[list], list], delta: float, cfg: QuadratureConfig) -> Estimate:
    """(1/(2 pi i)) int_H g(z) / sqrt(z + sqrt(z)) dz on the contour at
    distance ``delta``, as Im of the upper half's integral over pi, its
    error counted twice.

    ``values(nodes)`` returns Im(g(z) * q) for each node pair (z, q), in one
    comprehension with g written into it, so no Python call is made per
    node. The weight q folds in all that does not depend on g:
    q = gamma'(xi) / sqrt(z + sqrt(z)) on the arc, and on the ray
    q = -2 delta / (sqrt(z + sqrt(z)) sigma**3), gamma' = -delta times the
    engine's compact map's 2 / sigma**3. A ray node the compact map guards
    is (0j, 0j), where g is finite, so it gives +0.0 in the same pass. A
    panel's node pairs come from its part's table of whole panels."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError("delta must be a positive finite number")
    exp, sqrt = cmath.exp, cmath.sqrt
    arc = delta * _ARC

    # a panel's node pairs in one pass; they lie in the upper half plane,
    # where sqrt(z + sqrt(z)) needs no cut checks
    def arc_nodes(xis: tuple) -> list:
        return [(z := delta * (w := exp(_ARC * xi)), arc * w / sqrt(z + sqrt(z))) for xi in xis]

    def ray_nodes(sigmas: tuple) -> list:
        return [
            (0j, 0j) if n is None else (z := complex(-delta * n[0], delta), -2.0 * delta / (sqrt(z + sqrt(z)) * n[1]))
            for n in _compact_nodes(-1.0, sigmas)
        ]

    def part(name: str, build: Callable) -> Estimate:
        # an entry depends on (delta, panel) alone, so a partial fill stays valid
        table = _node_table(name, delta)

        def at(xs: tuple) -> list:
            # a panel is keyed on its centre xs[0], and a new entry is read
            # back from its table, so its first use sees what later ones do;
            # the single nodes of _panel's fallback, the centre among them,
            # neither read nor write the table
            if len(xs) != 15:
                return values(build(xs))
            entry = table.get(xs[0])
            if entry is None:
                table[xs[0]] = build(xs)
                entry = table[xs[0]]
            return values(entry)

        return _adaptive([(at, 0.0, 1.0)], cfg)

    half = _linear(((1.0, part("contour arc", arc_nodes)), (1.0, part("contour ray", ray_nodes))))
    # twice the half's error, divided by 2 pi
    return half._replace(value=half.value / math.pi, error_estimate=half.error_estimate / math.pi)


@_once
def hankel_exp_integral(
    t: float,
    delta: float = _DELTA,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Estimate:
    """(1/(2 pi i)) * int_H exp(t z) / sqrt(z + sqrt(z)) dz for finite t > 0.

    On the upper ray |exp(t z)| = exp(-t * delta * x), and on the arc
    the integrand reaches exp(t * delta), which sets the roundoff floor:
    from t * delta of about 10 the error bar is that floor, not abs_tol.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"hankel_exp_integral: t must be finite and > 0, got {t!r}")
    exp = cmath.exp
    return _upper_half(lambda nodes: [(exp(t * z) * q).imag for z, q in nodes], delta, cfg)


def hankel_resolvent_integral(c: float, *, cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """(1/(2 pi i)) * int_H dz / (sqrt(z + sqrt(z)) * (1 - z + c)) for finite c >= 0.

    The integrand has a simple pole at z = 1 + c >= 1, right of H at distance
    0.5; closing H through the right half plane shows the value equals
    1 / sqrt((1+c) + sqrt(1+c)). The integrand decays only like |z|**(-3/2)
    on the ray.
    """
    if not 0.0 <= c < math.inf:
        raise ValueError(f"hankel_resolvent_integral: c must be finite and >= 0, got {c!r}")
    return _upper_half(lambda nodes: [(q / (1.0 + c - z)).imag for z, q in nodes], _DELTA, cfg)


# Weideman-Trefethen hyperbola z(u) = mu * (1 + sin(i u - alpha)) with
# node spacing h and mu = _HYP_MU_T / t. Its nodes are z_k = mu * w_k, so
# exp(t z_k) = exp(_HYP_MU_T * w_k) does not depend on t and joins the
# fixed weights of _HYP_RULE.
_HYP_N = 16
_HYP_ALPHA = 1.1721
_HYP_H = 1.0818 / _HYP_N
_HYP_MU_T = 4.4921 * _HYP_N


def _hyperbola_rule() -> tuple[tuple[complex, complex], ...]:
    """(w_k, c_k) for u_k = k h, k = 0..N, so that
    S(t) = mu * Im(sum c_k / sqrt(z_k + sqrt(z_k)))."""
    rule = []
    for k in range(_HYP_N + 1):
        v = complex(-_HYP_ALPHA, k * _HYP_H)  # i u_k - alpha
        w = 1.0 + cmath.sin(v)
        dw = 1j * cmath.cos(v)  # z'(u_k) / mu
        weight = (0.5 if k == 0 else 1.0) * _HYP_H / math.pi
        rule.append((w, weight * cmath.exp(_HYP_MU_T * w) * dw))
    return tuple(rule)


_HYP_RULE = _hyperbola_rule()
# |hankel_hyperbolic(t) - S(t)| <= HYPERBOLIC_ERROR for 6 <= t <= 50: the
# worst, 8.4e-14, lies near t = 6 against a 45-digit sum of the series
# (tests/test_oracle.py); below 6 it grows, to 9.3e-14 on [5, 6) and
# 1.07e-13 on [4, 5)
HYPERBOLIC_ERROR = 1e-13
_HYP_T_MIN = 1e-306  # below about 4.0e-307, mu = _HYP_MU_T / t overflows


def hankel_hyperbolic(t: float) -> float:
    """S(t) = (1/(2 pi i)) int exp(t z) / sqrt(z + sqrt(z)) dz for finite
    t >= 1e-306, by the 2N+1-point trapezoid rule on the Weideman-Trefethen
    hyperbola; smaller t, where mu overflows, raise ValueError.

    The rule evaluates the integrand at the N+1 nodes u_k = k h >= 0 (the
    others are their conjugates) and returns a plain float, like
    ``hankel_series``. Its nodes mu w_k lie on the positive axis (k = 0)
    or in the open upper half plane, so it takes sqrt(z + sqrt(z)) without
    ``nested_radical``'s cut checks. Its absolute error is below 1e-12 for
    0.25 <= t <= 50 and below ``HYPERBOLIC_ERROR`` for 6 <= t <= 50, where
    the rounding of the terms, not the rule, sets it.
    """
    if not _HYP_T_MIN <= t < math.inf:
        raise ValueError(f"hankel_hyperbolic: t must be finite and >= {_HYP_T_MIN}, got {t!r}")
    mu = _HYP_MU_T / t
    sqrt = cmath.sqrt
    total = 0j
    for w, c in _HYP_RULE:
        z = mu * w
        total += c / sqrt(z + sqrt(z))
    return mu * total.imag
