"""Elliptic integrals in the conventions of the Gradshteyn-Ryzhik tables.

    F(phi, k)  = int_0^phi d(alpha) / sqrt(1 - k^2 sin^2 alpha)
               = int_0^sin(phi) dx / sqrt((1 - x^2)(1 - k^2 x^2))
    K(k)       = F(pi/2, k)
    Pi(n, k)   = int_0^1 dx / ((1 - n x^2) sqrt((1 - x^2)(1 - k^2 x^2)))

Convention note: the characteristic n of the complete third-kind
integral multiplies x^2 directly (it is NOT squared first). That is the
form entry 3.248.5's correction is stated in, e.g. Pi(2 - sqrt(3),
1/sqrt(3)); tables that write Pi(phi, n^2, k) square their second
argument before it reaches this form.

Evaluation takes two routes.

* K(k) and Pi(n, k) come from the arithmetic-geometric mean (DLMF
  19.8(i)): K = pi/(2M) with M the AGM of 1 and k', and Pi from the AGM
  series of DLMF 19.8.6, with the reflection DLMF 19.7.8 above n = k and
  the map of DLMF 19.7(iii) below n = -1. Each step of the AGM squares
  the relative gap between its means, so a double takes two to seven
  steps, where Carlson's duplication gains two bits a step.
* F(phi, k) and the Landen residual go through Carlson's symmetric form
  R_F with the duplication theorem (Carlson, Numerical computation of
  real or complex elliptic integrals, 1994). The Landen residual compares
  two R_F values, because one step of the AGM is itself the Landen
  transformation: computed by the AGM, the residual would vanish by
  construction and verify nothing.

carlson_rj, Carlson's R_J, is kept as a public kernel; nothing in the
package calls it.

Direct quadrature of the defining x-form integrands is kept as an
independent oracle in the test suite.

The descending Landen transformation (DLMF 19.8.12)

    K(sqrt(1 - k^2)) = 2/(1 + k) * K((1 - k)/(1 + k))

is exposed as a residual for verification.
"""

from __future__ import annotations

import math

__all__ = [
    "carlson_rf",
    "carlson_rj",
    "incomplete_F",
    "complete_K",
    "complete_Pi",
    "landen_residual",
]

_EPS = 2.220446049250313e-16
# Duplication stops once the scaled spread is below (3 eps)**(1/6) of the
# mean: the bound Carlson (1995, Numer. Algorithms 10:13-26) gives for the
# fifth-order R_F series below. No loop needs a cap: scale shrinks 4x a
# step while A tends to a positive limit.
_RF_STOP = (3.0 * _EPS) ** (-1.0 / 6.0)


def _rf_state(x: float, y: float, z: float) -> tuple[float, int]:
    A = A0 = (x + y + z) / 3.0
    Q = _RF_STOP * max(abs(A - x), abs(A - y), abs(A - z))
    x0, y0 = x, y
    scale = 1.0
    iters = 0
    while Q * scale > abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        A = 0.25 * (A + lam)
        scale *= 0.25
        iters += 1
    X = (A0 - x0) * scale / A
    Y = (A0 - y0) * scale / A
    Z = -X - Y
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    series = (
        1.0
        - E2 / 10.0
        + E3 / 14.0
        + E2 * E2 / 24.0
        - 3.0 * E2 * E3 / 44.0
    )
    return series / math.sqrt(A), iters


def _rc(x: float, y: float) -> float:
    # R_C(x, y) for y > 0; duplication plus the degenerate series
    A = A0 = (x + 2.0 * y) / 3.0
    y0 = y
    Q = (3.0 * _EPS) ** -0.125 * abs(A0 - x)
    scale = 1.0
    while Q * scale > abs(A):
        lam = 2.0 * math.sqrt(x) * math.sqrt(y) + y
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        A = 0.25 * (A + lam)
        scale *= 0.25
    s = (y0 - A0) * scale / A
    poly = 1.0 + s * s * (
        0.3 + s * (1.0 / 7.0 + s * (0.375 + s * (9.0 / 22.0 + s * (159.0 / 208.0 + s * 9.0 / 8.0))))
    )
    return poly / math.sqrt(A)


def _rj_state(x: float, y: float, z: float, p: float) -> tuple[float, int]:
    A = A0 = (x + y + z + 2.0 * p) / 5.0
    # p - x etc. shrink 4x a step, like scale; formed once here, exactly
    dx, dy, dz = p - x, p - y, p - z
    Q = (0.25 * _EPS) ** (-1.0 / 6.0) * max(
        abs(A - x), abs(A - y), abs(A - z), abs(A - p)
    )
    x0, y0, z0 = x, y, z
    scale = 1.0
    rc_sum = 0.0
    iters = 0
    while Q * scale > abs(A):
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        px, py, pz = sp + sx, sp + sy, sp + sz
        # e = (p - x)(p - y)(p - z) / d^2 at this step, as three factors in
        # [-1, 1], so neither a large p nor the tail of a long run leaves range
        fx, fy, fz = dx * scale / (px * px), dy * scale / (py * py), dz * scale / (pz * pz)
        e = fx * fy * fz
        if e < -0.5:
            # 1 + e = 1 - |fx fy fz| cancels as e nears -1 (p far below or
            # above the others). Each 1 - |f| is 2 min(sqrt p, sqrt x) /
            # (sqrt p + sqrt x), and 1 - abc = (1 - a) + a((1 - b) + b(1 - c))
            # adds only nonnegative terms
            mx, my, mz = 2.0 * min(sp, sx) / px, 2.0 * min(sp, sy) / py, 2.0 * min(sp, sz) / pz
            one_plus_e = mx + abs(fx) * (my + abs(fy) * mz)
        else:
            one_plus_e = 1.0 + e
        rc_sum += scale / (px * py * pz) * _rc(1.0, one_plus_e)
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        p = 0.25 * (p + lam)
        A = 0.25 * (A + lam)
        scale *= 0.25
        iters += 1
    X = (A0 - x0) * scale / A
    Y = (A0 - y0) * scale / A
    Z = (A0 - z0) * scale / A
    P = 0.5 * (-X - Y - Z)
    XYZ = X * Y * Z
    E2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    E3 = XYZ + 2.0 * E2 * P + 4.0 * P**3
    E4 = (2.0 * XYZ + E2 * P + 3.0 * P**3) * P
    E5 = XYZ * P * P
    series = (
        1.0
        - 3.0 * E2 / 14.0
        + E3 / 6.0
        + 9.0 * E2 * E2 / 88.0
        - 3.0 * E4 / 22.0
        - 9.0 * E2 * E3 / 52.0
        + 3.0 * E5 / 26.0
    )
    return scale * series / (A * math.sqrt(A)) + 6.0 * rc_sum, iters


def _check_rf_args(x: float, y: float, z: float) -> None:
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf and 0.0 <= z < math.inf):
        raise ValueError("carlson arguments must be finite and nonnegative")
    if (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise ValueError("at most one carlson argument may vanish")


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral of the first kind R_F(x, y, z)."""
    _check_rf_args(x, y, z)
    if max(x, y, z) < 2.0**1000:
        return _rf_state(x, y, z)[0]
    # x + y + z would overflow; scaling by 4**-12, exact by
    # R_F(4**m .) = 2**-m R_F(.), keeps the largest argument below 2**1000
    return math.ldexp(_rf_state(math.ldexp(x, -24), math.ldexp(y, -24), math.ldexp(z, -24))[0], -12)


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson's symmetric integral of the third kind R_J(x, y, z, p) for
    max(x, y, z) <= 2**1000 and 0 < p <= 2**1000 min(1, max(x, y, z)).
    When p is the largest argument, duplication takes about
    log4(p / max(x, y, z)) steps, 505 at the top of that range. No other
    function of the package calls it."""
    _check_rf_args(x, y, z)
    top = max(x, y, z)
    if not (0.0 < p <= 2.0**1000 and p <= 2.0**1000 * top and top <= 2.0**1000):
        raise ValueError(f"carlson_rj: need max(x, y, z) <= 2**1000 and 0 < p <= 2**1000 min(1, max(x, y, z)), got {(x, y, z, p)!r}")
    if top >= 0.5:
        return _rj_state(x, y, z, p)[0]
    # scaling up by 4**-m, exact by R_J(4**-m .) = 8**m R_J(.), keeps the
    # tail of a long run clear of underflow
    m = math.frexp(top)[1] // 2
    x, y, z, p = math.ldexp(x, -2 * m), math.ldexp(y, -2 * m), math.ldexp(z, -2 * m), math.ldexp(p, -2 * m)
    return math.ldexp(_rj_state(x, y, z, p)[0], -3 * m)


def _check_modulus(k: float) -> None:
    if not 0.0 < k < 1.0:
        raise ValueError(f"modulus must satisfy 0 < k < 1, got {k!r}")


def incomplete_F(phi: float, k: float) -> float:
    """F(phi, k) for amplitude phi in [0, pi/2] and modulus 0 < k < 1."""
    if not 0.0 <= phi <= math.pi / 2.0:
        raise ValueError(f"amplitude must lie in [0, pi/2], got {phi!r}")
    _check_modulus(k)
    s = math.sin(phi)
    c = math.cos(phi)
    ks = k * s
    return s * carlson_rf(c * c, (1.0 - ks) * (1.0 + ks), 1.0)


# The AGM stops once a - g <= _AGM_TOL * a; the next mean is then within
# (a - g)**2 / (8a) <= 2**-57 a of M, so (a + g)/2 is M to the last bit.
_AGM_TOL = 2.0**-27


def _agm_series(g: float, pp: float, c0: float, c1: float) -> tuple[float, float]:
    """2 M(1, g) and one of the sums of DLMF 19.8.6 for p_0**2 = pp.

    The series is sum Q_j, Q_0 = 1, Q_{j+1} = Q_j e_j / 2, with e_j =
    (p_j**2 - a_j g_j)/(p_j**2 + a_j g_j). Summed as written it cancels
    where e_0 is near -1 and the next e_j near +1 (1 - n far below k'),
    down to 1/2 - 1/4 - ... The tail ratio rho_j = sum_{m>=j} Q_m / Q_j
    and sigma_j = 2 - rho_j obey

        rho_j   = (u_j rho_{j+1} + sigma_{j+1}) / 2,   u_j = 1 + e_j,
        sigma_j = (v_j rho_{j+1} + sigma_{j+1}) / 2,   v_j = 1 - e_j,

    with u_j and v_j positive. The row (c0, c1), (1, 0) for rho_0 = sum Q
    or (0, 1) for sigma_0 = 2 - sum Q, times the product of these 2x2
    maps therefore takes only sums of positive terms. The row is applied to
    (rho, sigma) = (1, 1) once |e_j| <= _AGM_TOL: p_j then matches the
    means to about 2**-27, Heron's step p_{j+1} = (p_j**2 + a_j g_j)/(2 p_j)
    squares that, and the e_j left out are at the rounding level. p_j
    enters only as p_j**2."""
    a = 1.0
    while True:
        ag = a * g
        w = pp + ag
        x, y = pp / w, ag / w  # u_j / 2 and v_j / 2
        c0, c1 = c0 * x + c1 * y, 0.5 * (c0 + c1)
        if a - g <= _AGM_TOL * a and abs(x - y) <= _AGM_TOL:
            return a + g, c0 + c1
        pp = w * w / (4.0 * pp)
        a, g = 0.5 * (a + g), math.sqrt(ag)


def complete_K(k: float) -> float:
    """Complete first-kind integral K(k) = pi/(2 M(1, k')); diverges as
    k -> 1, so the boundary moduli are domain errors.

    Against mpmath at 30 digits its relative error is at most 1.92 eps
    (eps = 2**-52) on 100,000 uniform moduli in [0.05, 0.99]; the largest
    found is 2.02 eps, at k = 0.9498452744016076. It is at most 0.6 eps
    at k = 1e-8 and for k up to 1 - 2**-52. Carlson's R_F form reached
    3.16 eps on the same moduli."""
    _check_modulus(k)
    return math.pi / _agm_series(math.sqrt((1.0 - k) * (1.0 + k)), 1.0, 1.0, 0.0)[0]


def complete_Pi(n: float, k: float) -> float:
    """Complete third-kind integral with characteristic n < 1 multiplying
    x^2 directly; n must be finite. k = 0 is accepted (closed form
    pi/(2 sqrt(1-n)) exists); n = 0 gives complete_K(k) to the bit, from
    the same call of _agm_series, which every branch makes once.

    Three branches, by n:

    * -1 <= n <= k: the AGM series, Pi = pi/(4M) (2 + n/(1 - n) rho_0)
      for n >= 0, and Pi = pi/(4M) (2 + (-n) sigma_0)/(1 - n) for n < 0,
      both sums of positive terms (see _agm_series).
    * k < n < 1: the reflection Pi(n) = K - Pi(k^2/n) + (pi/2)
      sqrt(n/((1 - n)(n - k^2))) (DLMF 19.7.8), whose K - Pi(k^2/n) is
      -pi/(4M) k^2/(n - k^2) rho_0 at p_0**2 = (n - k^2)/n. As n -> 1
      the direct series starts from p_0 = sqrt(1 - n) far below the
      means and climbs back by halving, about log2 of k'/(1 - n) steps
      of rounding (up to 5 eps on a line of n to 1 at k = 0.3);
      reflected, it starts within k' of them. n - k^2 is formed as (n - k) + k(1 - k),
      without cancellation.
    * n < -1: n is mapped to N = (k^2 - n)/(1 - n) in (k, 1) (DLMF
      19.7(iii)), Pi(n) = (k^2 K + (-n)(1 - N) Pi(N))/(k^2 - n), and
      Pi(N) is reflected as above. That leaves
      Pi(n) = (pi/2)/(k^2 - n) (sqrt(-n N) + k^2 (2 - rho_0)/(2M)) at
      p_0**2 = (N - k^2)/N, with N - k^2 formed as the product
      (-n)/(1 - n) k'^2. p_0**2 <= k'^2 <= k', so e_0 <= 0 and
      rho_0 <= 1: both terms are positive. Started from p = sqrt(1 - n)
      instead, the series would fall to the means by halving, about
      log2 sqrt(-n) steps of rounding.

    Against mpmath at 30 digits the relative error is at most 2.09 eps
    (eps = 2**-52) on 3,000 seeded points of -1 < n < 1 - 1e-4,
    0.05 < k < 0.99 (Carlson's R_F + (n/3) R_J: 2.42 eps), and at most
    2.57 eps on 312 edge points: n -> 1 down to 1 - n = 2**-53, k' down
    to 2**-20, k = 1e-8 and k = 0, both sides of n = -1 and of n = k,
    and lines of n from k to 1 (tests/test_oracle.py). For n < -1 it is
    within 2.88 ulps on n = -10**(i/4), i = 0..1200, and n down to
    -1.7e308, on ten moduli from k = 0 to k' = 2**-19.5."""
    if not -math.inf < n < 1.0:
        raise ValueError(f"characteristic must be finite and below 1, got {n!r}")
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k!r}")
    kc2, q = (1.0 - k) * (1.0 + k), 1.0 - n
    kc = math.sqrt(kc2)
    if n < -1.0:
        N = (k * k - n) / q
        s, rho = _agm_series(kc, -n / q * kc2 / N, 1.0, 0.0)
        return 0.5 * math.pi / (k * k - n) * (math.sqrt(-n) * math.sqrt(N) + k * k * (2.0 - rho) / s)
    if n > k:
        d = (n - k) + k * (1.0 - k)
        s, rho = _agm_series(kc, d / n, 1.0, 0.0)
        return 0.5 * math.pi * (math.sqrt(n / (q * d)) - k * k * rho / (d * s))
    if n >= 0.0:
        s, rho = _agm_series(kc, q, 1.0, 0.0)
        return 0.5 * math.pi / s * (2.0 + n * rho / q)
    s, sigma = _agm_series(kc, q, 0.0, 1.0)
    return 0.5 * math.pi / s * (2.0 + (-n) * sigma) / q


def landen_residual(k: float) -> float:
    """K(sqrt(1-k^2)) - (2/(1+k)) K((1-k)/(1+k)); identically zero by the
    descending Landen transformation. Each K(m) is R_F(0, 1 - m^2, 1) with
    1 - m^2 written exactly, k^2 and 4k/(1+k)^2, so small k does not cancel;
    k^2 must be a normal float, so k >= 2**-511 (about 1.5e-154)."""
    _check_modulus(k)
    if k < 2.0**-511:
        raise ValueError(f"landen_residual needs k >= 2**-511 so that k^2 is a normal float, got {k!r}")
    return carlson_rf(0.0, k * k, 1.0) - 2.0 / (1.0 + k) * carlson_rf(0.0, 4.0 * k / ((1.0 + k) * (1.0 + k)), 1.0)
