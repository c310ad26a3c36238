"""Check catalog, runner, and report rendering.

Each check produces one CheckRecord with both sides of an identity, the
absolute difference, and a pass/fail status. Record kinds:

    match   pass when |lhs - rhs| <= tolerance
    differ  pass when |lhs - rhs| >  tolerance (used for the erratum
            check: the integral must NOT equal the tabulated value)
    bound   pass when lhs <= rhs + tolerance

Checks run one after another in catalog order, so a report is
deterministic for a fixed configuration (wall times aside). Each check
gets a time budget: quadrature inside it stops at the next bisection once
the budget is spent, and a check that overruns it is reported as
no-converge. A record that did not pass or fail says why in ``reason``.
"""

from __future__ import annotations

import json as _json
import math
import time
from dataclasses import dataclass
from typing import Callable

from . import __version__
from .contour import (
    DEFAULT_PATH,
    HankelPath,
    hankel_exp_integral,
    hankel_resolvent_integral,
    nested_radical,
)
from .elliptic import landen_residual
from .quadrature import _DEADLINE, DEFAULT_CONFIG, QuadratureConfig
from .representations import (
    BF_IDENTITIES,
    CONSTANTS,
    NORMAL_FORM_COEFF,
    REPRESENTATIONS,
    B,
    bf_identity,
    constant_residuals,
    double_angle_form,
    eval_representation,
    h1_integral,
    h2_integral,
    j1_integral,
    j2_integral,
)
from .series import DEFAULT_SERIES, SeriesConfig, u_integral, u_series

__all__ = [
    "CheckRecord",
    "Report",
    "CheckSpec",
    "catalog",
    "catalog_ids",
    "run_checks",
    "render_table",
    "render_json",
    "UnknownCheckError",
]

# the left side of 3.248.5 prints as 0.666377 to the six figures usually quoted
HEADLINE_VALUE = 0.666377
HEADLINE_TOL = 5e-7

_SQRT_3PI = math.sqrt(3.0 * math.pi)


class UnknownCheckError(ValueError):
    """A selection named a check id that is not in the catalog."""


@dataclass
class CheckRecord:
    id: str
    description: str
    lhs: float
    rhs: float
    abs_diff: float
    tolerance: float
    status: str  # "pass" | "fail" | "no-converge" | "error"
    paper_anchor: str
    evals: int
    wall_time_ms: int
    kind: str = "match"
    reason: str | None = None  # why a check did not pass or fail


@dataclass
class Report:
    records: list[CheckRecord]
    tool_version: str
    config_echo: str
    overall: str  # "pass" | "fail"


@dataclass(frozen=True)
class CheckSpec:
    id: str
    description: str
    anchor: str
    kind: str  # "match" | "differ" | "bound"
    tol_class: str  # "quad" | "series" | "fixed"
    tolerance: float  # used when tol_class == "fixed"
    fn: Callable  # ctx -> (lhs, rhs, evals)


class _Context:
    """Per-run cache so shared quantities (the R0 baseline above all) are
    computed once."""

    def __init__(self, cfg: QuadratureConfig, scfg: SeriesConfig):
        self.cfg = cfg
        self.scfg = scfg
        self._values: dict[str, tuple] = {}

    def representation(self, rep_id: str):
        hit = self._values.get(rep_id)
        if hit is not None:
            return hit
        res = eval_representation(rep_id, self.cfg, self.scfg)
        if not res.converged:
            raise ArithmeticError(f"{rep_id} did not converge")
        out = self._values[rep_id] = (res.value, res.evals)
        return out


def _check_headline(ctx: _Context):
    value, evals = ctx.representation("R0")
    return value, HEADLINE_VALUE, evals


def _check_wrong_value(ctx: _Context):
    value, evals = ctx.representation("R0")
    return value, CONSTANTS.wrong_value, evals


def _rep_check(rep_id: str):
    def fn(ctx: _Context):
        value, evals = ctx.representation(rep_id)
        base, base_evals = ctx.representation("R0")
        return value, base, evals + base_evals

    return fn


def _check_bf(which: int):
    def fn(ctx: _Context):
        lhs, rhs, evals = bf_identity(which, ctx.cfg)
        return lhs, rhs, evals

    return fn


_LANDEN_MODULI = (CONSTANTS.k, 0.5, 0.9)


def _check_landen(ctx: _Context):
    worst = max((abs(landen_residual(k)) for k in _LANDEN_MODULI))
    return worst, 0.0, 0


_LEMMA_T_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)


def _check_lemma_pair(ctx: _Context):
    worst = 0.0
    evals = 0
    for t in _LEMMA_T_GRID:
        s = u_series(t, ctx.scfg)
        if not s.converged:
            raise ArithmeticError(f"u_series({t}) did not converge")
        worst = max(worst, abs(s.value - u_integral(t, ctx.cfg)))
        evals += s.terms_used
    return worst, 0.0, evals


_LEMMA_BOUND_T = (2.0, 10.0, 100.0)


def _check_lemma_decay(ctx: _Context):
    # U(t) <= sqrt(3 pi) / (2 sqrt(t)): the proof bound with the factor
    # from the symmetry of u(1-u) about 1/2 made explicit
    worst = max(u_integral(t, ctx.cfg) * math.sqrt(t) for t in _LEMMA_BOUND_T)
    return worst, _SQRT_3PI / 2.0, 0


_HANKEL_T_GRID = (0.5, 1.0, 2.0, 5.0)


def _check_hankel_series(ctx: _Context):
    from .series import hankel_series

    worst = 0.0
    evals = 0
    for t in _HANKEL_T_GRID:
        contour_val = hankel_exp_integral(t, DEFAULT_PATH, ctx.cfg)
        series_val = hankel_series(t, ctx.scfg)
        if not (contour_val.converged and series_val.converged):
            raise ArithmeticError(f"Hankel comparison at t={t} did not converge")
        worst = max(worst, abs(contour_val.value - series_val.value))
        evals += contour_val.evals
    return worst, 0.0, evals


def _check_residue(ctx: _Context):
    worst = 0.0
    evals = 0
    for j in range(20):
        u = j / 19.0
        c = 16.0 / 3.0 * u * u * (1.0 - u) ** 2
        res = hankel_resolvent_integral(c, DEFAULT_PATH, ctx.cfg)
        if not res.converged:
            raise ArithmeticError(f"resolvent at u={u} did not converge")
        reference = (1.0 / nested_radical(complex(1.0 + c, 0.0))).real
        worst = max(worst, abs(res.value - reference))
        evals += res.evals
    return worst, 0.0, evals


_DELTA_VARIANTS = (0.25, 1.0)
_DELTA_T_GRID = (1.0, 2.0)


def _check_delta_independence(ctx: _Context):
    worst = 0.0
    evals = 0
    for t in _DELTA_T_GRID:
        base = hankel_exp_integral(t, DEFAULT_PATH, ctx.cfg)
        evals += base.evals
        for delta in _DELTA_VARIANTS:
            other = hankel_exp_integral(t, HankelPath(delta=delta), ctx.cfg)
            if not (base.converged and other.converged):
                raise ArithmeticError(f"delta variant at t={t} did not converge")
            worst = max(worst, abs(other.value - base.value))
            evals += other.evals
    return worst, 0.0, evals


_B_THRESHOLD_T = (2.0 + math.sqrt(3.0)) / 8.0


def _check_b_threshold(ctx: _Context):
    lhs = math.sqrt(B(_B_THRESHOLD_T))
    rhs = math.sqrt(3.0) - 1.5
    return lhs, rhs, 0


def _check_double_angle(ctx: _Context):
    res = double_angle_form(ctx.cfg)
    base, base_evals = ctx.representation("R0")
    if not res.converged:
        raise ArithmeticError("double-angle form did not converge")
    return res.value, base, res.evals + base_evals


def _check_h1_j1(ctx: _Context):
    lhs = h1_integral(ctx.cfg)
    rhs = j1_integral(ctx.cfg)
    if not (lhs.converged and rhs.converged):
        raise ArithmeticError("H1/J1 sides did not converge")
    return NORMAL_FORM_COEFF * lhs.value, CONSTANTS.coeff_a * rhs.value, lhs.evals + rhs.evals


def _check_h2_j2(ctx: _Context):
    lhs = h2_integral(ctx.cfg)
    rhs = j2_integral(ctx.cfg)
    if not (lhs.converged and rhs.converged):
        raise ArithmeticError("H2/J2 sides did not converge")
    return NORMAL_FORM_COEFF * lhs.value, -CONSTANTS.coeff_b * rhs.value, lhs.evals + rhs.evals


def _check_constants(ctx: _Context):
    worst = max(abs(v) for v in constant_residuals().values())
    return worst, 0.0, 0


def _build_catalog() -> tuple[CheckSpec, ...]:
    specs: list[CheckSpec] = [
        CheckSpec(
            "R0",
            "headline value of the integral",
            "GR 3.248.5 left side, usually quoted as 0.666377",
            "match",
            "fixed",
            HEADLINE_TOL,
            _check_headline,
        ),
        CheckSpec(
            "R0-vs-wrong",
            "integral must differ from the tabulated pi/(2 sqrt(6))",
            "GR 3.248.5 right side (erroneous)",
            "differ",
            "fixed",
            0.02,
            _check_wrong_value,
        ),
    ]
    for rep in REPRESENTATIONS[1:]:
        tol_class = "series" if rep.kind == "series" else "quad"
        specs.append(
            CheckSpec(
                rep.id,
                f"{rep.description} agrees with R0",
                rep.anchor,
                "match",
                tol_class,
                0.0,
                _rep_check(rep.id),
            )
        )
    for which, ident in enumerate(BF_IDENTITIES):
        specs.append(
            CheckSpec(
                ident.id, ident.description, ident.anchor, "match", "fixed", 1e-10, _check_bf(which)
            )
        )
    specs.extend(
        [
            CheckSpec(
                "landen",
                "descending Landen residual at k = 2-sqrt(3), 0.5, 0.9",
                "DLMF 19.8.12",
                "match",
                "fixed",
                1e-12,
                _check_landen,
            ),
            CheckSpec(
                "V4-lemma",
                "series and integral forms of U(t) agree on the t grid",
                "alternating kernel sum vs its Gaussian-type integral",
                "match",
                "fixed",
                1e-11,
                _check_lemma_pair,
            ),
            CheckSpec(
                "lemma-decay",
                "sqrt(t) U(t) stays below sqrt(3 pi)/2 at t = 2, 10, 100",
                "Gaussian tail bound with the interval-symmetry factor",
                "bound",
                "fixed",
                1e-12,
                _check_lemma_decay,
            ),
            CheckSpec(
                "V5-hankel",
                "Hankel contour integral equals the Hankel sum at t = 0.5, 1, 2, 5",
                "reciprocal-gamma contour representation",
                "match",
                "fixed",
                1e-8,
                _check_hankel_series,
            ),
            CheckSpec(
                "V6-residue",
                "resolvent contour integral equals its residue on a 20-point u grid",
                "simple pole at z = 1 + (16/3) u^2 (1-u)^2",
                "match",
                "fixed",
                1e-9,
                _check_residue,
            ),
            CheckSpec(
                "V7-threshold",
                "sqrt(B(t)) reaches sqrt(3) - 3/2 exactly at t = (2+sqrt(3))/8",
                "order-swap threshold of the indicator bracket",
                "match",
                "fixed",
                1e-12,
                _check_b_threshold,
            ),
            CheckSpec(
                "V8-delta",
                "Hankel integral is independent of the contour distance delta",
                "Cauchy deformation invariance",
                "match",
                "fixed",
                1e-10,
                _check_delta_independence,
            ),
            CheckSpec(
                "double-angle",
                "double-angle intermediate form agrees with R0",
                "x = sin^2(theta) substitution",
                "match",
                "fixed",
                1e-10,
                _check_double_angle,
            ),
            CheckSpec(
                "H1-vs-J1",
                "bilinear map sends the first pre-normal integral to a J1",
                "x = L(t) with L(-1/k,-1,1,1/k) = (5,4,-4,8)",
                "match",
                "fixed",
                1e-9,
                _check_h1_j1,
            ),
            CheckSpec(
                "H2-vs-J2",
                "bilinear map sends the second pre-normal integral to -b J2",
                "x = L(t) with L(-1/k,-1,1,1/k) = (8,4,-4,inf)",
                "match",
                "fixed",
                1e-9,
                _check_h2_j2,
            ),
            CheckSpec(
                "constants",
                "exact algebraic relations among the constants",
                "surd identities of the evaluation",
                "match",
                "fixed",
                1e-14,
                _check_constants,
            ),
        ]
    )
    return tuple(specs)


_CATALOG = _build_catalog()


def catalog() -> tuple[CheckSpec, ...]:
    return _CATALOG


def catalog_ids() -> list[str]:
    return [spec.id for spec in _CATALOG]


def _spec_tolerance(spec: CheckSpec, tol: float, series_tol: float) -> float:
    if spec.tol_class == "quad":
        return tol
    if spec.tol_class == "series":
        return series_tol
    return spec.tolerance


def _status(kind: str, abs_diff: float, tolerance: float) -> str:
    if math.isnan(abs_diff):
        return "no-converge"
    if kind == "differ":
        return "pass" if abs_diff > tolerance else "fail"
    return "pass" if abs_diff <= tolerance else "fail"


def _execute(spec: CheckSpec, ctx: _Context, tolerance: float, timeout_secs: float) -> CheckRecord:
    timeout = f"timeout after {timeout_secs:g} s"
    t0 = time.monotonic()
    token = _DEADLINE.set(t0 + timeout_secs)
    try:
        lhs, rhs, evals = spec.fn(ctx)
        if spec.kind == "bound":
            abs_diff = max(0.0, lhs - rhs)
        else:
            abs_diff = abs(lhs - rhs)
        status = _status(spec.kind, abs_diff, tolerance)
        reason = "the difference is NaN" if status == "no-converge" else None
    except Exception as exc:
        # isolation: a broken or non-convergent check must not stop the run
        lhs = rhs = abs_diff = math.nan
        evals = 0
        if isinstance(exc, TimeoutError):
            status, reason = "no-converge", timeout
        elif isinstance(exc, (ArithmeticError, ValueError)):
            status, reason = "no-converge", str(exc)
        else:
            status, reason = "error", f"{type(exc).__name__}: {exc}"
    finally:
        _DEADLINE.reset(token)
    elapsed = time.monotonic() - t0
    if elapsed > timeout_secs and status != "error":
        # work outside the quadrature engine cannot be stopped, only relabelled
        status, reason = "no-converge", timeout
    return CheckRecord(
        id=spec.id,
        description=spec.description,
        lhs=lhs,
        rhs=rhs,
        abs_diff=abs_diff,
        tolerance=tolerance,
        status=status,
        paper_anchor=spec.anchor,
        evals=evals,
        wall_time_ms=int(round(elapsed * 1000.0)),
        kind=spec.kind,
        reason=reason,
    )


def run_checks(
    selection: list[str] | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    scfg: SeriesConfig = DEFAULT_SERIES,
    *,
    tol: float = 1e-9,
    series_tol: float = 1e-5,
    timeout_secs: float = 30.0,
) -> Report:
    """Run the selected checks (all of them when selection is falsy), one
    after another in catalog order.

    Unknown ids raise UnknownCheckError, and a tolerance or timeout that
    is not a positive finite number raises ValueError. A failing check
    never prevents later checks from running. Each check has timeout_secs
    of wall time: quadrature stops at its next bisection once that is
    spent, and a check that overruns it is recorded as no-converge.
    """
    for name, value in (("tol", tol), ("series_tol", series_tol), ("timeout_secs", timeout_secs)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    known = {spec.id: spec for spec in _CATALOG}
    if selection:
        missing = [cid for cid in selection if cid not in known]
        if missing:
            raise UnknownCheckError(f"unknown check id(s): {', '.join(missing)}")
        chosen = [known[cid] for cid in catalog_ids() if cid in set(selection)]
    else:
        chosen = list(_CATALOG)

    ctx = _Context(cfg, scfg)
    records = [
        _execute(spec, ctx, _spec_tolerance(spec, tol, series_tol), timeout_secs)
        for spec in chosen
    ]
    overall = "pass" if all(r.status == "pass" for r in records) else "fail"
    echo = (
        f"tol={tol:g} series_tol={series_tol:g} abs_tol={cfg.abs_tol:g} "
        f"max_evals={cfg.max_evals} timeout_secs={timeout_secs:g} "
        f"only={','.join(selection) if selection else '-'}"
    )
    return Report(records=records, tool_version=__version__, config_echo=echo, overall=overall)


# ---------------------------------------------------------------------------
# rendering


def _sig12(x: float) -> str:
    if math.isnan(x):
        return "n/a"
    return f"{x:.12g}"


def render_table(report: Report) -> str:
    header = (
        f"{'ID':<14} {'LHS':>18} {'RHS':>18} {'|DIFF|':>10} {'TOL':>8} "
        f"{'STATUS':<11} ANCHOR"
    )
    lines = [header, "-" * len(header)]
    for r in report.records:
        diff = "n/a" if math.isnan(r.abs_diff) else f"{r.abs_diff:.2e}"
        lines.append(
            f"{r.id:<14} {_sig12(r.lhs):>18} {_sig12(r.rhs):>18} {diff:>10} "
            f"{r.tolerance:>8.0e} {r.status:<11} {r.paper_anchor}"
            + (f"  reason: {r.reason}" if r.reason else "")
        )
    lines.append("-" * len(header))
    lines.append(f"overall: {report.overall} ({len(report.records)} checks, version {report.tool_version})")
    lines.append(f"config: {report.config_echo}")
    return "\n".join(lines) + "\n"


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v) or math.isinf(v):
            return "null"
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return _json.dumps(v)
    if isinstance(v, dict):
        inner = ", ".join(f"{_json.dumps(k)}: {_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)!r}")


def render_json(report: Report) -> str:
    doc = {
        "tool_version": report.tool_version,
        "config_echo": report.config_echo,
        "overall": report.overall,
        "records": [
            {
                "id": r.id,
                "description": r.description,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "abs_diff": r.abs_diff,
                "tolerance": r.tolerance,
                "status": r.status,
                "paper_anchor": r.paper_anchor,
                "evals": r.evals,
                "wall_time_ms": r.wall_time_ms,
                "kind": r.kind,
                "reason": r.reason,
            }
            for r in report.records
        ],
    }
    return _json_value(doc) + "\n"
