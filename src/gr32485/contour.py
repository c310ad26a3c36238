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
upper ray. Exponential integrands are truncated in xi using their ray
decay rate; integrands with only algebraic ray decay are compactified
instead of truncated, so no tail is discarded.
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
    "hankel_point",
    "hankel_exp_integral",
    "hankel_resolvent_integral",
]

_TWO_PI_I = 2j * math.pi


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
    Omega because z + sqrt(z) never meets the cut there."""
    w = principal_sqrt(z)
    return principal_sqrt(z + w)


def hankel_point(xi: float, path: HankelPath = DEFAULT_PATH) -> tuple[complex, complex]:
    """Return (gamma(xi), gamma'(xi)) for the three-piece parametrization."""
    d = path.delta
    if xi <= -1.0:
        return complex(d * (xi + 1.0), -d), complex(d, 0.0)
    if xi >= 1.0:
        return complex(d * (1.0 - xi), d), complex(-d, 0.0)
    w = cmath.exp(0.5j * math.pi * xi)
    return d * w, d * (0.5j * math.pi) * w


def _contour_value(parts, extra_tail: float = 0.0) -> Estimate:
    total = 0j
    err = extra_tail
    evals = 0
    ok = True
    for res in parts:
        total += res.value
        err += res.error_estimate
        evals += res.evals
        ok = ok and res.converged
    v = total / _TWO_PI_I
    return Estimate(v.real, err / (2.0 * math.pi), evals, ok, abs(v.imag))


def hankel_exp_integral(
    t: float,
    path: HankelPath = DEFAULT_PATH,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Estimate:
    """(1/(2 pi i)) * int_H exp(t z) / sqrt(z + sqrt(z)) dz for t > 0.

    On the rays |exp(t z)| = exp(t * delta * (1 - |xi|)), so the contour is
    truncated where the discarded tail sits far below ``cfg.abs_tol``; the
    tail bound joins the error estimate. The integral is real; the computed
    imaginary part is reported as ``imag_residual``, a diagnostic.
    """
    if not t > 0.0:
        raise ValueError("hankel_exp_integral: t must be > 0")
    xi_cut = 1.0 + math.log(1.0 / cfg.abs_tol) / (t * path.delta) + 10.0

    def g(xi: float) -> complex:
        z, dz = hankel_point(xi, path)
        return cmath.exp(t * z) / nested_radical(z) * dz

    parts = [
        integrate_complex(g, Interval(-xi_cut, -1.0), cfg),
        integrate_complex(g, Interval(-1.0, 1.0), cfg),
        integrate_complex(g, Interval(1.0, xi_cut), cfg),
    ]
    ray = path.delta * (xi_cut - 1.0)
    amplitude = math.sqrt(2.0 / max(ray, 0.5))
    tail = 2.0 * amplitude * math.exp(-t * ray) / t
    return _contour_value(parts, tail)


def hankel_resolvent_integral(
    c: float,
    path: HankelPath = DEFAULT_PATH,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Estimate:
    """(1/(2 pi i)) * int_H dz / (sqrt(z + sqrt(z)) * (1 - z + c)) for c >= 0.

    The integrand has a simple pole at z = 1 + c to the right of the
    contour; closing H through the right half plane shows the value equals
    1 / sqrt((1+c) + sqrt(1+c)). The integrand decays only like |z|**(-3/2)
    on the rays, so both rays are compactified rather than truncated.
    """
    if c < 0.0:
        raise ValueError("hankel_resolvent_integral: c must be >= 0")
    if path.delta >= 1.0 + c:
        raise ValueError("path.delta must keep the pole right of the contour")

    def fz(z: complex) -> complex:
        return 1.0 / (nested_radical(z) * (1.0 - z + c))

    d = path.delta

    def arc(xi: float) -> complex:
        z, dz = hankel_point(xi, path)
        return fz(z) * dz

    def upper_ray(r: float) -> complex:
        return fz(complex(-d * r, d)) * (-d)

    def lower_ray(r: float) -> complex:
        return fz(complex(-d * r, -d)) * d

    parts = [
        integrate_complex(lower_ray, Interval(0.0, math.inf), cfg),
        integrate_complex(arc, Interval(-1.0, 1.0), cfg),
        integrate_complex(upper_ray, Interval(0.0, math.inf), cfg),
    ]
    return _contour_value(parts)
