"""Principal-branch arithmetic on the cut plane and Hankel-contour integrals.

The cut plane Omega is the complex plane minus the closed negative real
axis; sqrt denotes the principal branch (|arg z| < pi). On Omega the
combination z + sqrt(z) never meets the cut, so sqrt(z + sqrt(z)) is
analytic there.

The contour H encircles the negative real axis counterclockwise at
distance delta: two horizontal rays at Im z = -/+ delta joined by the
right half of the circle |z| = delta. The fixed parametrization is

    gamma(xi) = delta * (xi + 1 - i)        for xi <= -1   (lower ray)
    gamma(xi) = delta * exp(i pi xi / 2)    for -1 < xi < 1
    gamma(xi) = delta * (1 - xi + i)        for xi >= 1    (upper ray)

so increasing xi runs from the lower ray, around the origin, onto the
upper ray. Each contour integral compactifies its ray onto a finite
range (see ``quadrature``), whether the integrand decays exponentially
or only algebraically along it, so no tail is discarded.

Every integrand here is real on the positive real axis, so its value at
conj(z) is the conjugate of its value at z. Since gamma(-xi) is the
conjugate of gamma(xi) and gamma'(-xi) is minus the conjugate of
gamma'(xi), the lower half of H contributes the negated conjugate of
the upper half, and

    (1/(2 pi i)) int_H = Im(int over xi >= 0) / pi.

The adaptive contour integrals therefore integrate only the upper half
(the arc for 0 <= xi <= 1 and the upper ray) and double its error
estimate.

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
from dataclasses import dataclass

from .quadrature import (
    DEFAULT_CONFIG,
    Estimate,
    Interval,
    QuadratureConfig,
    integrate_complex,
)

__all__ = [
    "HankelPath",
    "DEFAULT_PATH",
    "principal_sqrt",
    "nested_radical",
    "hankel_exp_integral",
    "hankel_resolvent_integral",
    "hankel_hyperbolic",
]


@dataclass(frozen=True)
class HankelPath:
    """Hankel contour at distance ``delta``."""

    delta: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("delta must be a positive finite number")


DEFAULT_PATH = HankelPath()


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


def _from_upper_half(parts) -> Estimate:
    """(1/(2 pi i)) int_H from the integrals over the upper half of H.

    The lower half contributes the negated conjugate of the upper half,
    so the imaginary parts add and the real parts cancel exactly; the
    upper half's error estimate counts twice.
    """
    total = sum(res.value for res in parts)
    err = 2.0 * sum(res.error_estimate for res in parts)
    return Estimate(
        total.imag / math.pi,
        err / (2.0 * math.pi),
        sum(res.evals for res in parts),
        all(res.converged for res in parts),
    )


def hankel_exp_integral(
    t: float,
    path: HankelPath = DEFAULT_PATH,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Estimate:
    """(1/(2 pi i)) * int_H exp(t z) / sqrt(z + sqrt(z)) dz for t > 0.

    On the upper ray |exp(t z)| = exp(t * delta * (1 - xi)); the ray
    xi >= 1 is compactified rather than truncated, so no tail is
    discarded. Only the upper half of the contour is integrated (see the
    module docstring).
    """
    if not t > 0.0:
        raise ValueError("hankel_exp_integral: t must be > 0")
    d = path.delta
    d_arc = d * _ARC

    def arc(xi: float) -> complex:
        w = cmath.exp(_ARC * xi)
        z = d * w
        return cmath.exp(t * z) / nested_radical(z) * (d_arc * w)

    def upper_ray(xi: float) -> complex:
        z = complex(d * (1.0 - xi), d)
        return cmath.exp(t * z) / nested_radical(z) * -d

    parts = [
        integrate_complex(arc, Interval(0.0, 1.0), cfg),
        integrate_complex(upper_ray, Interval(1.0, math.inf), cfg),
    ]
    return _from_upper_half(parts)


def hankel_resolvent_integral(
    c: float,
    path: HankelPath = DEFAULT_PATH,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Estimate:
    """(1/(2 pi i)) * int_H dz / (sqrt(z + sqrt(z)) * (1 - z + c)) for c >= 0.

    The integrand has a simple pole at z = 1 + c to the right of the
    contour; closing H through the right half plane shows the value equals
    1 / sqrt((1+c) + sqrt(1+c)). The integrand decays only like |z|**(-3/2)
    on the rays, which are compactified like every contour ray here.
    """
    if not c >= 0.0:
        raise ValueError(f"hankel_resolvent_integral: c must be >= 0, got {c!r}")
    if path.delta >= 1.0 + c:
        raise ValueError("path.delta must keep the pole right of the contour")
    d = path.delta
    d_arc = d * _ARC

    def arc(xi: float) -> complex:
        w = cmath.exp(_ARC * xi)
        z = d * w
        return 1.0 / (nested_radical(z) * (1.0 - z + c)) * (d_arc * w)

    def upper_ray(r: float) -> complex:
        z = complex(-d * r, d)
        return 1.0 / (nested_radical(z) * (1.0 - z + c)) * -d

    parts = [
        integrate_complex(arc, Interval(0.0, 1.0), cfg),
        integrate_complex(upper_ray, Interval(0.0, math.inf), cfg),
    ]
    return _from_upper_half(parts)


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
    """S(t) = (1/(2 pi i)) int exp(t z) / sqrt(z + sqrt(z)) dz for t > 0,
    by the 2N+1-point trapezoid rule on the Weideman-Trefethen hyperbola.

    The rule evaluates the integrand at the N+1 nodes u_k = k h >= 0 (the
    others are their conjugates) and returns a plain float, like
    ``hankel_series``. Its absolute error is below 1e-12 for
    0.25 <= t <= 50 and below 1e-13 for t >= 8, where the rounding of the
    terms, not the rule, sets it.
    """
    if not t > 0.0:
        raise ValueError("hankel_hyperbolic: t must be > 0")
    mu = _HYP_MU_T / t
    total = 0j
    for w, c in _HYP_RULE:
        total += c / nested_radical(mu * w)
    return mu * total.imag
