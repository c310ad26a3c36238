"""Catalog of equivalent expressions for the Gradshteyn-Ryzhik 3.248.5 integral.

The target value is

    I = int_0^inf dx / ((1+x^2)^(3/2) sqrt(phi(x) + sqrt(phi(x)))),
    phi(x) = 1 + 4 x^2 / (3 (1+x^2)^2),

whose tabulated value pi/(2 sqrt(6)) is wrong (I = 0.666377..., the
table says 0.641275...). The catalog evaluates I through thirteen
routes R0..R12: direct quadrature, a substituted finite form, the
conditionally convergent double series, a Hankel-contour Laplace form,
a residue-reduced form, rationalizing-substitution chains, and finally
the closed form in complete elliptic integrals

    sqrt(2) I = (sqrt(3)-1) Pi(2-sqrt(3), 1/sqrt(3)) - F(alpha, 1/sqrt(3)),

with alpha = arcsin(sqrt(2-sqrt(3))). All routes must agree; the engine
tolerances leave roughly ten orders of margin against the wrong value.
"""

from __future__ import annotations

import collections
import math

from .contour import HYPERBOLIC_ERROR, hankel_hyperbolic
from .elliptic import complete_Pi, incomplete_F
from .quadrature import (
    _EPS,
    DEFAULT_CONFIG,
    Estimate,
    Interval,
    QuadratureConfig,
    _linear,
    _once,
    integrate,
)
from .series import TAIL_TOL, U_RULE_ERROR, double_series_I, hankel_series, u_value

__all__ = [
    "Constants",
    "CONSTANTS",
    "constant_residuals",
    "phi",
    "h",
    "B",
    "Representation",
    "REPRESENTATIONS",
    "eval_representation",
    "DELTA_FORMS",
    "delta_form",
    "double_angle_form",
    "h1_integral",
    "h2_integral",
    "j1_integral",
    "j2_integral",
    "NORMAL_FORM_COEFF",
]

_SQRT3 = math.sqrt(3.0)
_SQRT2 = math.sqrt(2.0)


Constants = collections.namedtuple("Constants", "k k_prime inv_k alpha a_upper coeff_a coeff_b c0 wrong_value")
Constants.__doc__ = """Exact algebraic constants of the evaluation, as floats.

    k = 2 - sqrt(3) is the modulus, k_prime its complement, inv_k = 2 + sqrt(3);
    alpha = arcsin(sqrt(k)); a_upper = (1 + sqrt(3))/2 = 1/(1 - k);
    coeff_a = sqrt(3) / (2 sqrt(2)); coeff_b = (2 sqrt(3) - 3) / (2 sqrt(2));
    c0 = sqrt(21 + 12 sqrt(3))/sqrt(2) * log((3 + 2 sqrt(3))/6);
    wrong_value = pi / (2 sqrt(6)), the erroneous table entry.
    """


def _make_constants() -> Constants:
    k = 2.0 - _SQRT3
    return Constants(
        k=k,
        k_prime=math.sqrt((1.0 - k) * (1.0 + k)),
        inv_k=2.0 + _SQRT3,
        alpha=math.asin(math.sqrt(k)),
        a_upper=0.5 * (1.0 + _SQRT3),
        coeff_a=_SQRT3 / (2.0 * _SQRT2),
        coeff_b=(2.0 * _SQRT3 - 3.0) / (2.0 * _SQRT2),
        c0=math.sqrt(21.0 + 12.0 * _SQRT3) / _SQRT2 * math.log((3.0 + 2.0 * _SQRT3) / 6.0),
        wrong_value=math.pi / (2.0 * math.sqrt(6.0)),
    )


CONSTANTS = _make_constants()

# coefficient 2 sqrt(3) / sqrt(2 - sqrt(3)) shared by the substitution chain
NORMAL_FORM_COEFF = 2.0 * _SQRT3 / math.sqrt(2.0 - _SQRT3)


def constant_residuals() -> dict[str, float]:
    """Residuals of the exact algebraic relations among the constants."""
    c = CONSTANTS
    return {
        "k-times-inverse": c.k * c.inv_k - 1.0,
        "a-upper": c.a_upper - 1.0 / (1.0 - c.k),
        "sin-squared-alpha": math.sin(c.alpha) ** 2 - c.k,
        "modulus-pair": c.k * c.k + c.k_prime * c.k_prime - 1.0,
        "constant-cancellation": c.c0
        + NORMAL_FORM_COEFF * (1.0 + _SQRT3) / 4.0 * math.log(4.0 * _SQRT3 - 6.0),
        "nested-surd": math.sqrt(21.0 + 12.0 * _SQRT3) - (3.0 + 2.0 * _SQRT3),
        "bilinear-surd": math.sqrt(2.0 - _SQRT3) * math.sqrt(698.0 + 391.0 * _SQRT3)
        - (14.0 + 3.0 * _SQRT3),
        "denominator-shift": 4.0 * (4.0 + 3.0 * _SQRT3) - ((3.0 + 2.0 * _SQRT3) ** 2 - 5.0),
    }


def phi(x: float) -> float:
    """1 + 4 x^2 / (3 (1+x^2)^2), written overflow-safe; range [1, 4/3]."""
    r = x / (1.0 + x * x)
    return 1.0 + 4.0 / 3.0 * r * r


def h(y: float) -> float:
    """1 + (4/3)(y^2 - y^4) on [0, 1]; range [1, 4/3]."""
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"h: argument must lie in [0, 1], got {y!r}")
    y2 = y * y
    return 1.0 + 4.0 / 3.0 * y2 * (1.0 - y2)


def B(t: float) -> float:
    """(1 + 10 t - sqrt(1 + 32 t + 64 t^2)) / (8 t) for t > 0.

    B increases to 1/4 as t -> inf, vanishes at t = 1/3, and is negative
    below that. The logarithmic representation needs it on t >= (2 + sqrt(3))/8,
    as 1/4 - B = 2/(sqrt(1 + 32 t + 64 t^2) + 8 t + 1), which does not cancel.
    """
    if not t > 0.0:
        raise ValueError(f"B: argument must be > 0, got {t!r}")
    return (1.0 + 10.0 * t - math.sqrt(1.0 + t * (32.0 + 64.0 * t))) / (8.0 * t)


# ---------------------------------------------------------------------------
# shared integrands


def _sqrt_term(v: float) -> float:
    return math.sqrt(v + math.sqrt(v))


def _integrand_r0(x: float) -> float:
    p = phi(x)
    return 1.0 / ((1.0 + x * x) ** 1.5 * _sqrt_term(p))


# x = 1 + L sin^2(theta) with L = 1/k - 1 makes x - 1 = L sin^2(theta) and
# 1/k - x = L cos^2(theta) exact products, so with Delta = (x^2 - 1)(1 - k^2 x^2)
# dx / sqrt(Delta) = 2 dtheta / (k sqrt((x + 1)(1/k + x))), regular on [0, pi/2].
def _inv_sqrt_delta(theta: float, shifted: bool = False) -> float:
    """dx / (sqrt(Delta) dtheta), divided by x + 1 + sqrt3 when shifted."""
    x = 1.0 + (CONSTANTS.inv_k - 1.0) * math.sin(theta) ** 2
    w = 2.0 / (CONSTANTS.k * math.sqrt((x + 1.0) * (CONSTANTS.inv_k + x)))
    return w / (x + 1.0 + _SQRT3) if shifted else w


# The three Delta-form integrals of the normal form, shared by R11 and the
# Byrd-Friedman checks: over [1, 1/k] and [1, a] of 1/sqrt(Delta), and over
# [1, 1/k] of 1/((x + 1 + sqrt3) sqrt(Delta)). In theta, x = 1/k is pi/2 and
# x = a is arcsin(sqrt(k/2)).
DELTA_FORMS = (
    (_inv_sqrt_delta, Interval(0.0, 0.5 * math.pi)),
    (_inv_sqrt_delta, Interval(0.0, math.asin(math.sqrt(0.5 * CONSTANTS.k)))),
    (lambda theta: _inv_sqrt_delta(theta, True), Interval(0.0, 0.5 * math.pi)),
)


@_once
def delta_form(i: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """The integral of DELTA_FORMS[i]."""
    f, iv = DELTA_FORMS[i]
    return integrate(f, iv, cfg)


# ---------------------------------------------------------------------------
# representation evaluators


def _eval_r0(cfg: QuadratureConfig) -> Estimate:
    return integrate(_integrand_r0, Interval(0.0, math.inf), cfg)


def _eval_r1(cfg: QuadratureConfig) -> Estimate:
    return integrate(lambda y: 1.0 / _sqrt_term(h(y)), Interval(0.0, 1.0), cfg)


def _eval_r2(cfg: QuadratureConfig) -> Estimate:
    return double_series_I()


_R3_SPLIT_T = 6.0  # the low piece ends here, the upper piece begins
_R3_CUTOFF_T = 50.0


def _eval_r3(cfg: QuadratureConfig) -> Estimate:
    """int_0^inf S(t) U(t) exp(-t) dt, in two pieces, both at cfg.

    The low piece, t in [0, 6], takes S(t) from the alternating sum
    ``hankel_series`` and is integrated in the engine's s = sqrt(t). The
    upper piece, t in [6, 50], where the sum's terms reach exp(t)/(2 pi t)
    and cancel, takes S(t) from the fixed-node rule ``hankel_hyperbolic``
    and is integrated in w = 6/t, dt = (t^2/6) dw, over [6/50, 1], where
    two panels suffice. U(t) comes from the fixed Gauss-Legendre rule of
    ``u_value``, so the only adaptive quadrature is the outer one; at the
    default abs_tol each piece takes 30 evaluations. Each t meets one
    kernel for S(t), so S(t)'s error is charged once, at the larger bound.
    """

    def f(t: float) -> float:
        return hankel_series(t) * u_value(t) * math.exp(-t)

    def upper(w: float) -> float:
        t = _R3_SPLIT_T / w
        return hankel_hyperbolic(t) * u_value(t) * math.exp(-t) * (t * t / _R3_SPLIT_T)

    low = integrate(f, Interval(0.0, _R3_SPLIT_T, singular_lower=True), cfg)
    high = integrate(upper, Interval(_R3_SPLIT_T / _R3_CUTOFF_T, 1.0), cfg)
    # 0 < U <= 1 and |S(t)| <= 1/sqrt(t), whose integral against exp(-t)
    # is sqrt(pi). So an error e_S in S(t) costs at most e_S times the
    # integral of exp(-t) over its range (4 eps sqrt(pi) for the relative
    # part 4 eps |S| of hankel_series' bound), the rule's error in U(t) at
    # most sqrt(pi) U_RULE_ERROR, and the discarded tail exp(-T)/sqrt(T).
    tail = math.exp(-_R3_CUTOFF_T) / math.sqrt(_R3_CUTOFF_T)
    s_err = max(TAIL_TOL, HYPERBOLIC_ERROR) + 4.0 * _EPS * math.sqrt(math.pi)
    u_err = math.sqrt(math.pi) * U_RULE_ERROR
    return _linear(((1.0, low), (1.0, high)), extra_err=s_err + u_err + tail)


def _eval_r4(cfg: QuadratureConfig) -> Estimate:
    def f(x: float) -> float:
        w = x * (1.0 - x)
        return 1.0 / _sqrt_term(1.0 + 16.0 / 3.0 * w * w)

    return integrate(f, Interval(0.0, 1.0), cfg)


def _eval_r5(cfg: QuadratureConfig) -> Estimate:
    # in the offset d = 1 - x from the singular endpoint x = 1
    def f(d: float) -> float:
        x = 1.0 - d
        return 1.0 / (2.0 * math.sqrt(d)) / _sqrt_term(1.0 + x * x / 3.0)

    return integrate(f, Interval(0.0, 1.0, singular_lower=True), cfg)


def _eval_r6(cfg: QuadratureConfig) -> Estimate:
    c = CONSTANTS

    def f(x: float) -> float:
        return math.sqrt((1.0 - x + x * x) / (x * (1.0 - x * x) * (2.0 - x))) / (c.inv_k - x)

    res = integrate(f, Interval(0.0, c.k, singular_lower=True), cfg)
    return _linear([(_SQRT3 / math.sqrt(c.k), res)])


def _eval_r7(cfg: QuadratureConfig) -> Estimate:
    c = CONSTANTS

    # in the offset d = x - 2 from the singular endpoint, where
    # (1 - x^2)(2 - x) = d (1 + d)(3 + d)
    def f(d: float) -> float:
        x = 2.0 + d
        return math.sqrt((1.0 - x + x * x) / (x * d * (1.0 + d) * (3.0 + d))) / (x - c.k)

    res = integrate(f, Interval(0.0, c.inv_k - 2.0, singular_lower=True), cfg)
    return _linear([(_SQRT3 / math.sqrt(c.inv_k), res)])


_LOG_T0 = (2.0 + _SQRT3) / 8.0  # where sqrt(B) reaches sqrt(3) - 3/2


def _eval_r8(cfg: QuadratureConfig) -> Estimate:
    c = CONSTANTS

    def f(t: float) -> float:
        # log(inv_k / (inv_k - h)) with h = 1/2 - sqrt(B(t)) -> 0 like 1/t,
        # built from q = 1/4 - B(t) without cancelling against 1/4 or 1/2
        q = 2.0 / (math.sqrt(1.0 + t * (32.0 + 64.0 * t)) + 8.0 * t + 1.0)
        h = q / (0.5 + math.sqrt(0.25 - q))
        return -math.log1p(-h / c.inv_k) / (2.0 * math.sqrt(t))

    res = integrate(f, Interval(_LOG_T0, math.inf), cfg)
    return _linear([(NORMAL_FORM_COEFF, res)], const=c.c0)


_M_UPPER = 4.0 * (3.0 * _SQRT3 - 4.0)
_M_SHIFT = 4.0 * (4.0 + 3.0 * _SQRT3)


# The pre-normal-form pair is integrated in the offset d = x - 4 from the
# singular endpoint, where x^2 - 16 = d (8 + d).
_PRE_NORMAL_RANGE = Interval(0.0, _M_UPPER - 4.0, singular_lower=True)


def _pre_normal_root(d: float) -> float:
    """0.5 sqrt((8 - x)/(x^2 - 16)) / (4 (4 + 3 sqrt(3)) + x) at x = 4 + d."""
    return 0.5 * math.sqrt((4.0 - d) / (d * (8.0 + d))) / (_M_SHIFT + 4.0 + d)


@_once
def h1_integral(cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """First half of the pre-normal-form pair on [4, 4(3 sqrt(3) - 4)]."""

    def f(d: float) -> float:
        return _pre_normal_root(d) * (3.0 + 2.0 * _SQRT3) / math.sqrt(1.0 - d)

    return integrate(f, _PRE_NORMAL_RANGE, cfg)


@_once
def h2_integral(cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """Second half of the pre-normal-form pair."""
    return integrate(_pre_normal_root, _PRE_NORMAL_RANGE, cfg)


def _eval_r9(cfg: QuadratureConfig) -> Estimate:
    return _linear(((NORMAL_FORM_COEFF, h1_integral(cfg)), (-NORMAL_FORM_COEFF, h2_integral(cfg))))


@_once
def j1_integral(cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """int_{(1+sqrt3)/2}^{2+sqrt3} (x+1)/(x+1+sqrt3) dx/sqrt(Delta), in the
    offset d = 1/k - x from the singular endpoint, where 1 - k x = k d."""
    c = CONSTANTS

    def f(d: float) -> float:
        x = c.inv_k - d
        kd = c.k * d
        return (x + 1.0) / (x + 1.0 + _SQRT3) / math.sqrt((x * x - 1.0) * kd * (2.0 - kd))

    return integrate(f, Interval(0.0, c.inv_k - c.a_upper, singular_lower=True), cfg)


@_once
def j2_integral(cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """int_1^{(1+sqrt3)/2} (x-2-sqrt3)/(x+1+sqrt3) dx/sqrt(Delta), negative,
    in the offset d = x - 1 from the singular endpoint, where x^2 - 1 = d (2 + d)."""
    c = CONSTANTS

    def f(d: float) -> float:
        x = 1.0 + d
        radicand = d * (2.0 + d) * (1.0 - c.k * c.k * x * x)
        return (x - c.inv_k) / (x + 1.0 + _SQRT3) / math.sqrt(radicand)

    return integrate(f, Interval(0.0, c.a_upper - 1.0, singular_lower=True), cfg)


def _eval_r10(cfg: QuadratureConfig) -> Estimate:
    c = CONSTANTS
    return _linear(((c.coeff_a, j1_integral(cfg)), (c.coeff_b, j2_integral(cfg))))


def _eval_r11(cfg: QuadratureConfig) -> Estimate:
    # (sqrt3 whole + (sqrt3 - 3) partial - 3 shifted) / (2 sqrt2)
    coeffs = (_SQRT3 / (2.0 * _SQRT2), (_SQRT3 - 3.0) / (2.0 * _SQRT2), -3.0 / (2.0 * _SQRT2))
    return _linear((c, delta_form(i, cfg)) for i, c in enumerate(coeffs))


def _eval_r12(cfg: QuadratureConfig) -> Estimate:
    c = CONSTANTS
    k1 = 1.0 / _SQRT3
    value = ((_SQRT3 - 1.0) * complete_Pi(c.k, k1) - incomplete_F(c.alpha, k1)) / _SQRT2
    # Pi comes from the AGM and F from R_F, each within a few eps of
    # mpmath; the bar of 8 eps of the value was set once against mpmath
    return Estimate(value, 8.0 * abs(value) * 2.2e-16, 0, True)


def double_angle_form(cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """int_0^{pi/4} 2 sin(2 theta) dtheta / sqrt(1 + sin^4(2 theta)/3 + sqrt(...))."""

    def f(theta: float) -> float:
        s = math.sin(2.0 * theta)
        w = 1.0 + s * s * s * s / 3.0
        return 2.0 * s / _sqrt_term(w)

    return integrate(f, Interval(0.0, math.pi / 4.0), cfg)


# ---------------------------------------------------------------------------
# catalog


Representation = collections.namedtuple("Representation", "id description anchor evaluate")
Representation.__doc__ = """One route to I: evaluate(cfg) returns an Estimate of it."""


REPRESENTATIONS: tuple[Representation, ...] = (
    Representation("R0", "defining integral over [0, inf)", "GR 3.248.5 left side", _eval_r0),
    Representation("R1", "finite form after x -> 1/y, x -> 1 + y^2, x y^2 = 1", "substituted integral on [0, 1]", _eval_r1),
    Representation("R2", "conditionally convergent double series, accelerated", "binomial double expansion", _eval_r2),
    Representation("R3", "Laplace form int S(t) U(t) exp(-t) dt", "Hankel-contour kernel times Gaussian-type kernel", _eval_r3),
    Representation("R4", "residue-reduced integral on [0, 1]", "resolvent pole at 1 + (16/3)u^2(1-u)^2", _eval_r4),
    Representation("R5", "half-interval form with 1/(2 sqrt(1-x)) weight", "double-angle reduction", _eval_r5),
    Representation("R6", "hyperbola-rationalized form on [0, 2-sqrt(3)]", "x^2+3=y^2 rational point (1,2), lower branch", _eval_r6),
    Representation("R7", "companion rationalized form on [2, 2+sqrt(3)]", "x^2+3=y^2 rational point (1,2), upper branch", _eval_r7),
    Representation("R8", "logarithmic form C0 + weighted log integral", "order swap via indicator bracket", _eval_r8),
    Representation("R9", "pre-normal-form pair on [4, 4(3 sqrt(3)-4)]", "rationalized sqrt(1+32t+64t^2)", _eval_r9),
    Representation("R10", "elliptic normal form a J1 + b J2, modulus 2-sqrt(3)", "bilinear reduction to Delta(x)", _eval_r10),
    Representation("R11", "three-integral normal form over [1, 2+sqrt(3)]", "partial fractions of a J1 + b J2", _eval_r11),
    Representation("R12", "closed form ((sqrt3-1) Pi - F)/sqrt(2)", "BF 256.00, 256.39, 340.01 + DLMF 19.8.12", _eval_r12),
)


@_once
def eval_representation(rep_id: str, cfg: QuadratureConfig = DEFAULT_CONFIG) -> Estimate:
    """Evaluate one representation of I; every id returns an estimate of
    the same number."""
    for rep in REPRESENTATIONS:
        if rep.id == rep_id:
            return rep.evaluate(cfg)
    raise KeyError(f"unknown representation id {rep_id!r}")
