"""Principal-branch arithmetic on the cut plane and Hankel-contour integrals.

The cut plane Omega is the complex plane minus the closed negative real
axis; sqrt denotes the principal branch (|arg z| < pi). On Omega the
combination z + sqrt(z) never meets the cut, so sqrt(z + sqrt(z)) is
analytic there.

The contour H encircles the negative real axis counterclockwise at
distance delta: two horizontal rays at Im z = -/+ delta joined by the
right half of the circle |z| = delta. Every integrand here is real on
the positive real axis, so its value at conj(z) is the conjugate of its
value at z. The lower half of H is the mirror image of the upper half
run backwards, so it contributes the negated conjugate of the upper
half, and

    (1/(2 pi i)) int_H = Im(int over the upper half) / pi.

The adaptive contour integrals therefore integrate only the upper half,
parametrized as

    gamma(xi) = delta * exp(i pi xi / 2)    for 0 <= xi <= 1   (arc)
    gamma(r)  = delta * (-r + i)            for r >= 0         (upper ray)

and count its error estimate twice. The ray is compactified onto a
finite range (see ``quadrature``), whether the integrand decays
exponentially or only algebraically along it, so no tail is discarded.

For S(t) = (1/(2 pi i)) int_H exp(t z) / sqrt(z + sqrt(z)) dz at larger t
there is also a fixed-node rule, :func:`hankel_hyperbolic`: the trapezoid
rule on the hyperbola z(u) = mu (1 + sin(i u - alpha)) with the
parameters Weideman and Trefethen (2007, Math. Comp. 76:1341) optimized
for a transform analytic off the negative real axis. Its error decays
like exp(-1.358 N) in the node count N; by the same symmetry only the
nodes u >= 0 are evaluated.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from .quadrature import (
    DEFAULT_CONFIG,
    Estimate,
    Interval,
    QuadratureConfig,
    _linear,
    integrate,
)

__all__ = [
    "principal_sqrt",
    "nested_radical",
    "hankel_exp_integral",
    "hankel_resolvent_integral",
    "hankel_hyperbolic",
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
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise ValueError(f"principal_sqrt: {z!r} lies on the branch cut")
    v = z + cmath.sqrt(z)
    if v.imag == 0.0 and v.real <= 0.0:
        raise ValueError(f"principal_sqrt: {v!r} lies on the branch cut")
    return cmath.sqrt(v)


# gamma(xi) = delta * exp(_ARC * xi) on the arc, so gamma'(xi) = delta * _ARC * exp(_ARC * xi)
_ARC = 0.5j * math.pi


def _upper_half(g: Callable[[complex], complex], delta: float, cfg: QuadratureConfig) -> Estimate:
    """(1/(2 pi i)) int_H g(z) dz on the contour at distance ``delta``, from
    its upper half: the lower half cancels the upper half's real part and
    doubles its imaginary part, so the half's error estimate counts twice."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError("delta must be a positive finite number")
    d_arc = delta * _ARC

    def arc(xi: float) -> complex:
        w = cmath.exp(_ARC * xi)
        return g(delta * w) * (d_arc * w)

    def upper_ray(r: float) -> complex:
        return g(complex(-delta * r, delta)) * -delta

    arc_part = integrate(arc, Interval(0.0, 1.0), cfg)
    ray_part = integrate(upper_ray, Interval(0.0, math.inf), cfg)
    half = _linear(((1.0, arc_part), (1.0, ray_part)))
    # twice the half's error, divided by 2 pi
    return half._replace(
        value=half.value.imag / math.pi, error_estimate=half.error_estimate / math.pi
    )


def hankel_exp_integral(
    t: float,
    delta: float = 0.5,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Estimate:
    """(1/(2 pi i)) * int_H exp(t z) / sqrt(z + sqrt(z)) dz for finite t > 0.

    On the upper ray |exp(t z)| = exp(-t * delta * r), and on the arc
    the integrand reaches exp(t * delta), which sets the roundoff floor:
    once t * delta reaches about 10 the result stops converging.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"hankel_exp_integral: t must be finite and > 0, got {t!r}")
    return _upper_half(lambda z: cmath.exp(t * z) / nested_radical(z), delta, cfg)


def hankel_resolvent_integral(
    c: float,
    delta: float = 0.5,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Estimate:
    """(1/(2 pi i)) * int_H dz / (sqrt(z + sqrt(z)) * (1 - z + c)) for finite c >= 0.

    The integrand has a simple pole at z = 1 + c to the right of the
    contour; closing H through the right half plane shows the value equals
    1 / sqrt((1+c) + sqrt(1+c)). The integrand decays only like |z|**(-3/2)
    on the ray.
    """
    if not 0.0 <= c < math.inf:
        raise ValueError(f"hankel_resolvent_integral: c must be finite and >= 0, got {c!r}")
    if delta >= 1.0 + c:
        raise ValueError("delta must keep the pole right of the contour")
    return _upper_half(lambda z: 1.0 / (nested_radical(z) * (1.0 - z + c)), delta, cfg)


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


def hankel_hyperbolic(t: float) -> float:
    """S(t) = (1/(2 pi i)) int exp(t z) / sqrt(z + sqrt(z)) dz for finite t > 0,
    by the 2N+1-point trapezoid rule on the Weideman-Trefethen hyperbola.

    The rule evaluates the integrand at the N+1 nodes u_k = k h >= 0 (the
    others are their conjugates) and returns a plain float, like
    ``hankel_series``. Its absolute error is below 1e-12 for
    0.25 <= t <= 50 and below 1e-13 for t >= 8, where the rounding of the
    terms, not the rule, sets it.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"hankel_hyperbolic: t must be finite and > 0, got {t!r}")
    mu = _HYP_MU_T / t
    total = 0j
    for w, c in _HYP_RULE:
        total += c / nested_radical(mu * w)
    return mu * total.imag
