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
over the engine's compact variable sigma in (0, 1], x = -1 + 1/sigma**2
(see ``quadrature``), whether the integrand decays exponentially or only
algebraically along it, so no tail is discarded. A GK15 panel's nodes,
z with sqrt(z + sqrt(z)) and the part's weights, sit in node tables
keyed on the panel's nodes, one per delta and part, that last for a run
of the check runner, so every contour integral at one delta reads its
panels from one dyadic tree; elsewhere each call fills fresh ones. Each
integral computes a panel's values in one comprehension over its node
tuples, with its integrand written into it.

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

from .quadrature import DEFAULT_CONFIG, Estimate, QuadratureConfig, _adaptive, _linear, _once

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
    axis (including 0) is a domain error."""
    z = complex(z)
    if z == 0 or (z.real < 0.0 and z.imag == 0.0):
        raise ValueError(f"principal_sqrt: {z!r} lies on the branch cut")
    return cmath.sqrt(z)


def nested_radical(z: complex) -> complex:
    """sqrt(z + sqrt(z)) with principal branches; well defined on all of
    Omega because z + sqrt(z) never meets the cut there. Both square
    roots reject the cut as :func:`principal_sqrt` does."""
    return principal_sqrt(z + principal_sqrt(z))


# gamma(xi) = delta * exp(_ARC * xi) on the arc, so gamma'(xi) = delta * _ARC * exp(_ARC * xi)
_ARC = 0.5j * math.pi
_DELTA = 0.5  # the resolvent's contour distance and the exponential integral's default


@_once
def _node_table(name: str, delta: float) -> dict:
    return {}  # a part's node table: kept for a run, fresh elsewhere


def _upper_half(values: Callable[[tuple], list], delta: float, cfg: QuadratureConfig) -> Estimate:
    """(1/(2 pi i)) int_H g(z, sqrt(z + sqrt(z))) dz on the contour at distance
    ``delta``, as Im of the upper half's integral over pi, its error counted
    twice.

    ``values(nodes)`` returns m * Im(g(z, r) * w) / d for each node tuple
    (z, r, w, m, d), r = sqrt(z + sqrt(z)), in one comprehension with g
    written into it, so no Python call is made per node. (w, m, d) are the
    part's weights: (gamma'(xi), 1, 1) on the arc, where the value is exactly
    Im(g gamma'), and (-delta, 2, sigma**3) on the ray, the operations of the
    engine's compact map. A panel's node tuples come from its part's table
    of whole panels; a ray node past the tiny-sigma guard gives 0.0."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError("delta must be a positive finite number")
    exp, sqrt = cmath.exp, cmath.sqrt

    # nodes lie in the upper half plane, where sqrt(z + sqrt(z)) needs no cut checks
    def arc_node(xi: float):
        w = exp(_ARC * xi)
        z = delta * w
        return z, sqrt(z + sqrt(z)), delta * _ARC * w, 1.0, 1.0

    def ray_node(sigma: float):
        s3 = sigma * sigma * sigma
        # near the image of infinity a convergent improper integrand vanishes
        if s3 == 0.0 or not math.isfinite(x := -1.0 + 1.0 / (sigma * sigma)):
            return None
        z = complex(-delta * x, delta)
        return z, sqrt(z + sqrt(z)), -delta, 2.0, s3

    def part(name: str, node: Callable) -> Estimate:
        # an entry depends on (delta, nodes) alone, so a partial fill stays valid
        table = _node_table(name, delta)

        def at(xs: tuple) -> list:
            if (entry := table.get(xs)) is None:
                nodes = tuple(map(node, xs))
                guarded = [i for i, n in enumerate(nodes) if n is None] if None in nodes else ()
                entry = (tuple(filter(None, nodes)) if guarded else nodes), guarded
                if len(xs) == 15:  # a panel; the single nodes of _panel's fallback stay out
                    table[xs] = entry
            nodes, guarded = entry
            f = values(nodes)
            for i in guarded:  # ascending, so each 0.0 lands at its node
                f.insert(i, 0.0)
            return f

        return Estimate(*_adaptive([(at, 0.0, 1.0)], cfg))

    half = _linear(((1.0, part("contour arc", arc_node)), (1.0, part("contour ray", ray_node))))
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
    return _upper_half(lambda nodes: [m * (exp(t * z) / r * w).imag / d for z, r, w, m, d in nodes], delta, cfg)


def hankel_resolvent_integral(c: float, *, cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """(1/(2 pi i)) * int_H dz / (sqrt(z + sqrt(z)) * (1 - z + c)) for finite c >= 0.

    The integrand has a simple pole at z = 1 + c >= 1, right of H at distance
    0.5; closing H through the right half plane shows the value equals
    1 / sqrt((1+c) + sqrt(1+c)). The integrand decays only like |z|**(-3/2)
    on the ray.
    """
    if not 0.0 <= c < math.inf:
        raise ValueError(f"hankel_resolvent_integral: c must be finite and >= 0, got {c!r}")
    return _upper_half(
        lambda nodes: [m * (1.0 / (r * (1.0 - z + c)) * w).imag / d for z, r, w, m, d in nodes], _DELTA, cfg
    )


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
HYPERBOLIC_ERROR = 1e-13  # bound on |hankel_hyperbolic(t) - S(t)| for t >= 8


def hankel_hyperbolic(t: float) -> float:
    """S(t) = (1/(2 pi i)) int exp(t z) / sqrt(z + sqrt(z)) dz for finite t > 0,
    by the 2N+1-point trapezoid rule on the Weideman-Trefethen hyperbola.

    The rule evaluates the integrand at the N+1 nodes u_k = k h >= 0 (the
    others are their conjugates) and returns a plain float, like
    ``hankel_series``. Its nodes mu w_k lie on the positive axis (k = 0)
    or in the open upper half plane, so it takes sqrt(z + sqrt(z)) without
    ``nested_radical``'s cut checks. Its absolute error is below 1e-12 for
    0.25 <= t <= 50 and below ``HYPERBOLIC_ERROR`` for t >= 8, where the
    rounding of the terms, not the rule, sets it.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"hankel_hyperbolic: t must be finite and > 0, got {t!r}")
    mu = _HYP_MU_T / t
    sqrt = cmath.sqrt
    total = 0j
    for w, c in _HYP_RULE:
        z = mu * w
        total += c / sqrt(z + sqrt(z))
    return mu * total.imag
