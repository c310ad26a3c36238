"""Check catalog, runner, and report rendering.

Each check produces one CheckRecord with both sides of an identity, the
absolute difference, and a pass/fail status. Record kinds:

    match   pass when |lhs - rhs| <= tolerance
    differ  pass when |lhs - rhs| >  tolerance (used for the erratum
            check: the integral must NOT equal the tabulated value)
    bound   pass when lhs <= rhs + tolerance

A check is a function of the run context that returns its two sides,
each a float or an Estimate. The runner unwraps them: an Estimate side
that did not converge makes the record no-converge, and the record's
evals sum the Estimate sides' evals.

Checks run one after another in catalog order, so a report is
deterministic for a fixed configuration (wall times aside). Each check
gets a time budget: quadrature inside it stops at the next bisection once
the budget is spent, and a check that overruns it is reported as
no-converge. A record that did not pass or fail says why in ``reason``.
"""

from __future__ import annotations

import json
import math
import time
from typing import Callable, NamedTuple

from . import __version__
from .contour import hankel_exp_integral, hankel_resolvent_integral, nested_radical
from .elliptic import complete_K, complete_Pi, incomplete_F, landen_residual
from .quadrature import (
    _DEADLINE,
    DEFAULT_CONFIG,
    Estimate,
    QuadratureConfig,
    _linear,
    integrate,
)
from .representations import (
    CONSTANTS,
    DELTA_FORMS,
    NORMAL_FORM_COEFF,
    REPRESENTATIONS,
    B,
    constant_residuals,
    double_angle_form,
    eval_representation,
    h1_integral,
    h2_integral,
    j1_integral,
    j2_integral,
)
from .series import _u_quadrature, hankel_series, u_series

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

_SQRT3 = math.sqrt(3.0)
_SQRT_3PI = math.sqrt(3.0 * math.pi)


class UnknownCheckError(ValueError):
    """A selection named a check id that is not in the catalog."""


class CheckRecord(NamedTuple):
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


class Report(NamedTuple):
    records: list[CheckRecord]
    tool_version: str
    config_echo: str
    overall: str  # "pass" | "fail"


class CheckSpec(NamedTuple):
    id: str
    description: str
    anchor: str
    kind: str  # "match" | "differ" | "bound"
    tolerance: float | None  # None: the run's tol
    fn: Callable  # ctx -> (lhs, rhs), each a float or an Estimate


class _Context:
    """Per-run cache so shared quantities (the R0 baseline above all) are
    computed once, whether or not they converged."""

    def __init__(self, cfg: QuadratureConfig):
        self.cfg = cfg
        self._values: dict[str, Estimate] = {}

    def representation(self, rep_id: str) -> Estimate:
        res = self._values.get(rep_id)
        if res is None:
            res = self._values[rep_id] = eval_representation(rep_id, self.cfg)
        if not res.converged:
            raise ArithmeticError(f"{rep_id} did not converge")
        return res


def _worst(gaps: list[float], parts: list[Estimate]) -> Estimate:
    """The largest of gaps computed from the estimates in parts; their
    summed error estimates bound the error of any one gap."""
    return _linear((1.0, p) for p in parts)._replace(value=max(gaps))


_LEMMA_T_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)


def _check_lemma_pair(ctx: _Context):
    sums = [u_series(t) for t in _LEMMA_T_GRID]
    quads = [_u_quadrature(t, ctx.cfg) for t in _LEMMA_T_GRID]
    gaps = [abs(s.value - q.value) for s, q in zip(sums, quads)]
    return _worst(gaps, sums + quads), 0.0


def _check_lemma_decay(ctx: _Context):
    # U(t) <= sqrt(3 pi) / (2 sqrt(t)): the proof bound with the factor
    # from the symmetry of u(1-u) about 1/2 made explicit
    scaled = [_linear([(math.sqrt(t), _u_quadrature(t, ctx.cfg))]) for t in (2.0, 10.0, 100.0)]
    return _worst([s.value for s in scaled], scaled), _SQRT_3PI / 2.0


_HANKEL_T_GRID = (0.5, 1.0, 2.0, 5.0)


def _check_hankel_series(ctx: _Context):
    contour = [hankel_exp_integral(t, cfg=ctx.cfg) for t in _HANKEL_T_GRID]
    gaps = [abs(c.value - hankel_series(t)) for c, t in zip(contour, _HANKEL_T_GRID)]
    return _worst(gaps, contour), 0.0


# the pole offsets c = (16/3) u^2 (1-u)^2 on the 20-point u grid j/19; c is
# symmetric under u -> 1-u, so the points j < 10 give every distinct offset
_RESIDUE_C = tuple(16.0 / 3.0 * u * u * (1.0 - u) ** 2 for u in (j / 19.0 for j in range(10)))


def _check_residue(ctx: _Context):
    contour = [hankel_resolvent_integral(c, cfg=ctx.cfg) for c in _RESIDUE_C]
    residues = [(1.0 / nested_radical(complex(1.0 + c, 0.0))).real for c in _RESIDUE_C]
    return _worst([abs(r.value - v) for r, v in zip(contour, residues)], contour), 0.0


def _check_delta_independence(ctx: _Context):
    parts, gaps = [], []
    for t in (1.0, 2.0):
        base = hankel_exp_integral(t, cfg=ctx.cfg)
        others = [hankel_exp_integral(t, d, ctx.cfg) for d in (0.25, 1.0)]
        parts += [base, *others]
        gaps += [abs(o.value - base.value) for o in others]
    return _worst(gaps, parts), 0.0


_K1 = 1.0 / _SQRT3  # modulus of the Byrd-Friedman reductions


def _build_catalog() -> tuple[CheckSpec, ...]:
    specs: list[CheckSpec] = [
        CheckSpec(
            "R0",
            "headline value of the integral",
            "GR 3.248.5 left side, usually quoted as 0.666377",
            "match",
            HEADLINE_TOL,
            lambda ctx: (ctx.representation("R0"), HEADLINE_VALUE),
        ),
        CheckSpec(
            "R0-vs-wrong",
            "integral must differ from the tabulated pi/(2 sqrt(6))",
            "GR 3.248.5 right side (erroneous)",
            "differ",
            0.02,
            lambda ctx: (ctx.representation("R0"), CONSTANTS.wrong_value),
        ),
    ]
    for rep in REPRESENTATIONS[1:]:
        specs.append(
            CheckSpec(
                rep.id,
                f"{rep.description} agrees with R0",
                rep.anchor,
                "match",
                None,
                lambda ctx, rep_id=rep.id: (ctx.representation(rep_id), ctx.representation("R0")),
            )
        )
    # the Delta-form integrals of R11 by quadrature in theta, each
    # against its closed form through the elliptic module
    specs.extend(
        [
            CheckSpec(
                "V0-kprime",
                "int_1^{1/k} dx/sqrt(Delta) = K(k')",
                "Whittaker-Watson p.501",
                "match",
                1e-10,
                lambda ctx: (integrate(*DELTA_FORMS[0], ctx.cfg), complete_K(CONSTANTS.k_prime)),
            ),
            CheckSpec(
                "V1-bf25600",
                "int_1^a dx/sqrt(Delta) = (3+sqrt3)/3 F(arcsin sqrt(k), 1/sqrt3)",
                "Byrd-Friedman 256.00",
                "match",
                1e-10,
                lambda ctx: (
                    integrate(*DELTA_FORMS[1], ctx.cfg),
                    (3.0 + _SQRT3) / 3.0 * incomplete_F(CONSTANTS.alpha, _K1),
                ),
            ),
            CheckSpec(
                "V2-bf25639",
                "int_1^{1/k} dx/((x+1+sqrt3) sqrt(Delta)) = "
                "(1+sqrt3)/3 K(1/sqrt3) - 2(sqrt3-1)/3 Pi(2-sqrt3, 1/sqrt3)",
                "Byrd-Friedman 256.39 with 340.01",
                "match",
                1e-10,
                lambda ctx: (
                    integrate(*DELTA_FORMS[2], ctx.cfg),
                    (1.0 + _SQRT3) / 3.0 * complete_K(_K1)
                    - 2.0 * (_SQRT3 - 1.0) / 3.0 * complete_Pi(CONSTANTS.k, _K1),
                ),
            ),
            CheckSpec(
                "landen",
                "descending Landen residual at k = 2-sqrt(3), 0.5, 0.9",
                "DLMF 19.8.12",
                "match",
                1e-12,
                lambda ctx: (max(abs(landen_residual(k)) for k in (CONSTANTS.k, 0.5, 0.9)), 0.0),
            ),
            CheckSpec(
                "V4-lemma",
                "series and integral forms of U(t) agree on the t grid",
                "alternating kernel sum vs its Gaussian-type integral",
                "match",
                1e-11,
                _check_lemma_pair,
            ),
            CheckSpec(
                "lemma-decay",
                "sqrt(t) U(t) stays below sqrt(3 pi)/2 at t = 2, 10, 100",
                "Gaussian tail bound with the interval-symmetry factor",
                "bound",
                1e-12,
                _check_lemma_decay,
            ),
            CheckSpec(
                "V5-hankel",
                "Hankel contour integral equals the Hankel sum at t = 0.5, 1, 2, 5",
                "reciprocal-gamma contour representation",
                "match",
                1e-8,
                _check_hankel_series,
            ),
            CheckSpec(
                "V6-residue",
                "resolvent contour integral equals its residue at the 10 distinct "
                "offsets of a 20-point u grid",
                "simple pole at z = 1 + (16/3) u^2 (1-u)^2",
                "match",
                1e-9,
                _check_residue,
            ),
            CheckSpec(
                "V7-threshold",
                "sqrt(B(t)) reaches sqrt(3) - 3/2 exactly at t = (2+sqrt(3))/8",
                "order-swap threshold of the indicator bracket",
                "match",
                1e-12,
                lambda ctx: (math.sqrt(B((2.0 + _SQRT3) / 8.0)), _SQRT3 - 1.5),
            ),
            CheckSpec(
                "V8-delta",
                "Hankel integral is independent of the contour distance delta",
                "Cauchy deformation invariance",
                "match",
                1e-10,
                _check_delta_independence,
            ),
            CheckSpec(
                "double-angle",
                "double-angle intermediate form agrees with R0",
                "x = sin^2(theta) substitution",
                "match",
                1e-10,
                lambda ctx: (double_angle_form(ctx.cfg), ctx.representation("R0")),
            ),
            CheckSpec(
                "H1-vs-J1",
                "bilinear map sends the first pre-normal integral to a J1",
                "x = L(t) with L(-1/k,-1,1,1/k) = (5,4,-4,8)",
                "match",
                1e-9,
                lambda ctx: (
                    _linear([(NORMAL_FORM_COEFF, h1_integral(ctx.cfg))]),
                    _linear([(CONSTANTS.coeff_a, j1_integral(ctx.cfg))]),
                ),
            ),
            CheckSpec(
                "H2-vs-J2",
                "bilinear map sends the second pre-normal integral to -b J2",
                "x = L(t) with L(-1/k,-1,1,1/k) = (8,4,-4,inf)",
                "match",
                1e-9,
                lambda ctx: (
                    _linear([(NORMAL_FORM_COEFF, h2_integral(ctx.cfg))]),
                    _linear([(-CONSTANTS.coeff_b, j2_integral(ctx.cfg))]),
                ),
            ),
            CheckSpec(
                "constants",
                "exact algebraic relations among the constants",
                "surd identities of the evaluation",
                "match",
                1e-14,
                lambda ctx: (max(abs(v) for v in constant_residuals().values()), 0.0),
            ),
        ]
    )
    return tuple(specs)


_CATALOG = _build_catalog()


def catalog() -> tuple[CheckSpec, ...]:
    return _CATALOG


def catalog_ids() -> list[str]:
    return [spec.id for spec in _CATALOG]


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
        sides = spec.fn(ctx)
        estimates = {n: s for n, s in zip(("lhs", "rhs"), sides) if isinstance(s, Estimate)}
        evals = sum(e.evals for e in estimates.values())
        lhs, rhs = (s.value if isinstance(s, Estimate) else s for s in sides)
        # max keeps a NaN in first place, so a NaN side reaches _status
        abs_diff = max(lhs - rhs, 0.0) if spec.kind == "bound" else abs(lhs - rhs)
        status = _status(spec.kind, abs_diff, tolerance)
        reason = "the difference is NaN" if status == "no-converge" else None
        unconverged = [n for n, e in estimates.items() if not e.converged]
        if unconverged:
            status, reason = "no-converge", f"{unconverged[0]} did not converge"
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
    *,
    tol: float = 1e-9,
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
    for name, value in (("tol", tol), ("timeout_secs", timeout_secs)):
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

    ctx = _Context(cfg)
    records = [
        _execute(spec, ctx, tol if spec.tolerance is None else spec.tolerance, timeout_secs)
        for spec in chosen
    ]
    overall = "pass" if all(r.status == "pass" for r in records) else "fail"
    echo = (
        f"tol={tol:g} abs_tol={cfg.abs_tol:g} "
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


def _finite_or_none(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def render_json(report: Report) -> str:
    """The report as strict JSON: NaN and infinities become null, and a
    record's keys follow the CheckRecord fields in order."""
    doc = {
        "tool_version": report.tool_version,
        "config_echo": report.config_echo,
        "overall": report.overall,
        "records": [
            {key: _finite_or_none(v) for key, v in r._asdict().items()}
            for r in report.records
        ],
    }
    return json.dumps(doc, allow_nan=False) + "\n"
