"""Check catalog, runner, and report rendering.

Each check produces one CheckRecord with both sides of an identity, the
absolute difference, and a pass/fail status. Record kinds:

    match   pass when |lhs - rhs| <= tolerance
    differ  pass when |lhs - rhs| >  tolerance (used for the erratum
            check: the integral must NOT equal the tabulated value)
    bound   pass when lhs <= rhs + tolerance

A spec's tolerance of None is derived from the sides, err(lhs) + err(rhs)
+ 4 eps max(|lhs|, |rhs|), where err is an Estimate's error_estimate and
0 for a float: the sides must agree within the error bars they claim,
which hold the engine's rounding floor when abs_tol lies below it. A
check that raised records a derived tolerance as NaN.

A check is a function of the run's configuration that returns its two
sides, each a float or an Estimate. The runner unwraps them: a side that
did not converge keeps its value and evals and makes the record
no-converge, naming the side in ``reason``; evals sum the Estimates'.

Checks run one after another in catalog order, so a report is
deterministic for a fixed configuration (wall times aside). A record
that did not pass or fail says why in ``reason``.

Within one run every shared quantity (a route, S(t), h1, h2, J1, J2, a
Delta-form, U(t) by quadrature, a contour panel's nodes) is computed
once: the runner sets a fresh memo for the run (``quadrature._MEMO``)
and drops it when the run ends, so nothing is cached across runs. A
computation that raised is not kept, but the contour panels it reached
are. A record's evals still sum the evals of the Estimates it uses, so
work that two checks share counts in both records.
"""

from __future__ import annotations

import collections
import math
import time
from collections.abc import Iterable

from . import __version__
from .contour import hankel_exp_integral, hankel_resolvent_integral, nested_radical
from .elliptic import carlson_rf, complete_K, complete_Pi, incomplete_F, landen_residual
from .quadrature import _EPS, _MEMO, DEFAULT_CONFIG, Estimate, QuadratureConfig, _linear
from .representations import (
    _LOG_T0,
    _SQRT3,
    CONSTANTS,
    NORMAL_FORM_COEFF,
    REPRESENTATIONS,
    B,
    constant_residuals,
    delta_form,
    double_angle_form,
    eval_representation,
    h1_integral,
    h2_integral,
    j1_integral,
    j2_integral,
)
from .series import TAIL_TOL, _u_quadrature, hankel_series, u_series

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


CheckRecord = collections.namedtuple(
    "CheckRecord",
    "id description lhs rhs abs_diff tolerance status paper_anchor evals wall_time_ms kind reason",
    defaults=("match", None),
)
CheckRecord.__doc__ = """One check's outcome.

    status is "pass", "fail", "no-converge" or "error"; reason is None, or
    says why a check did not pass or fail.
    """

Report = collections.namedtuple("Report", "records tool_version config_echo overall")
Report.__doc__ = """The records of one run, in catalog order; overall is "pass" or "fail"."""

CheckSpec = collections.namedtuple("CheckSpec", "id description anchor kind tolerance fn")
CheckSpec.__doc__ = """One catalog check.

    kind is "match", "differ" or "bound". A tolerance of None is derived
    from the run: err(lhs) + err(rhs) + 4 eps max(|lhs|, |rhs|). fn(cfg)
    returns (lhs, rhs), each a float or an Estimate.
    """


def _worst(gaps: list[float], parts: list[Estimate], extra_err: float = 0.0) -> Estimate:
    """The largest of gaps computed from the estimates in parts; their
    summed error estimates, plus extra_err for the error of any other
    side, bound the error of any one gap."""
    return Estimate(
        max(gaps),
        math.fsum([p.error_estimate for p in parts]) + extra_err,
        sum(p.evals for p in parts),
        all(p.converged for p in parts),
    )


_LEMMA_T_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)


def _check_lemma_pair(cfg: QuadratureConfig):
    sums = [u_series(t) for t in _LEMMA_T_GRID]
    quads = [_u_quadrature(t, cfg) for t in _LEMMA_T_GRID]
    gaps = [abs(s.value - q.value) for s, q in zip(sums, quads)]
    return _worst(gaps, sums + quads), 0.0


def _check_lemma_decay(cfg: QuadratureConfig):
    # U(t) <= sqrt(3 pi) / (2 sqrt(t)): the proof bound with the factor
    # from the symmetry of u(1-u) about 1/2 made explicit
    scaled = [_linear([(math.sqrt(t), _u_quadrature(t, cfg))]) for t in (2.0, 10.0, 100.0)]
    return _worst([s.value for s in scaled], scaled), _SQRT_3PI / 2.0


_HANKEL_T_GRID = (0.5, 1.0, 2.0, 5.0)


def _check_hankel_series(cfg: QuadratureConfig):
    contour = [hankel_exp_integral(t, cfg=cfg) for t in _HANKEL_T_GRID]
    gaps = [abs(c.value - hankel_series(t)) for c, t in zip(contour, _HANKEL_T_GRID)]
    # each Hankel sum stops once its tail is below TAIL_TOL
    return _worst(gaps, contour, TAIL_TOL), 0.0


# the pole offsets c = (16/3) u^2 (1-u)^2 on the 20-point u grid j/19; c is
# symmetric under u -> 1-u, so the points j < 10 give every distinct offset
_RESIDUE_C = tuple(16.0 / 3.0 * u * u * (1.0 - u) ** 2 for u in (j / 19.0 for j in range(10)))


def _check_residue(cfg: QuadratureConfig):
    contour = [hankel_resolvent_integral(c, cfg=cfg) for c in _RESIDUE_C]
    residues = [(1.0 / nested_radical(complex(1.0 + c, 0.0))).real for c in _RESIDUE_C]
    return _worst([abs(r.value - v) for r, v in zip(contour, residues)], contour), 0.0


def _check_delta_independence(cfg: QuadratureConfig):
    parts, gaps = [], []
    for t in (1.0, 2.0):
        base = hankel_exp_integral(t, cfg=cfg)
        others = [hankel_exp_integral(t, d, cfg) for d in (0.25, 1.0)]
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
            lambda cfg: (eval_representation("R0", cfg), HEADLINE_VALUE),
        ),
        CheckSpec(
            "R0-vs-wrong",
            "integral must differ from the tabulated pi/(2 sqrt(6))",
            "GR 3.248.5 right side (erroneous)",
            "differ",
            0.02,
            lambda cfg: (eval_representation("R0", cfg), CONSTANTS.wrong_value),
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
                lambda cfg, rep_id=rep.id: (eval_representation(rep_id, cfg), eval_representation("R0", cfg)),
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
                None,
                lambda cfg: (delta_form(0, cfg), complete_K(CONSTANTS.k_prime)),
            ),
            CheckSpec(
                "V1-bf25600",
                "int_1^a dx/sqrt(Delta) = (3+sqrt3)/3 F(arcsin sqrt(k), 1/sqrt3)",
                "Byrd-Friedman 256.00",
                "match",
                None,
                lambda cfg: (
                    delta_form(1, cfg),
                    (3.0 + _SQRT3) / 3.0 * incomplete_F(CONSTANTS.alpha, _K1),
                ),
            ),
            CheckSpec(
                "V2-bf25639",
                "int_1^{1/k} dx/((x+1+sqrt3) sqrt(Delta)) = "
                "(1+sqrt3)/3 K(1/sqrt3) - 2(sqrt3-1)/3 Pi(2-sqrt3, 1/sqrt3)",
                "Byrd-Friedman 256.39 with 340.01",
                "match",
                None,
                lambda cfg: (
                    delta_form(2, cfg),
                    (1.0 + _SQRT3) / 3.0 * complete_K(_K1)
                    - 2.0 * (_SQRT3 - 1.0) / 3.0 * complete_Pi(CONSTANTS.k, _K1),
                ),
            ),
            CheckSpec(
                "landen",
                "descending Landen residual at k = 2-sqrt(3), 0.5, 0.9",
                "DLMF 19.8.12",
                "match",
                # 8 ulps of the largest K compared, K(k') = R_F(0, k^2, 1) at
                # k = 2 - sqrt(3), in the form landen_residual computes it
                8.0 * _EPS * carlson_rf(0.0, CONSTANTS.k * CONSTANTS.k, 1.0),
                lambda cfg: (max(abs(landen_residual(k)) for k in (CONSTANTS.k, 0.5, 0.9)), 0.0),
            ),
            CheckSpec(
                "V4-lemma",
                "series and integral forms of U(t) agree on the t grid",
                "alternating kernel sum vs its Gaussian-type integral",
                "match",
                None,
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
                None,
                _check_hankel_series,
            ),
            CheckSpec(
                "V6-residue",
                "resolvent contour integral equals its residue at the 10 distinct "
                "offsets of a 20-point u grid",
                "simple pole at z = 1 + (16/3) u^2 (1-u)^2",
                "match",
                None,
                _check_residue,
            ),
            CheckSpec(
                "V7-threshold",
                "sqrt(B(t)) reaches sqrt(3) - 3/2 exactly at t = (2+sqrt(3))/8",
                "order-swap threshold of the indicator bracket",
                "match",
                1e-12,
                lambda cfg: (math.sqrt(B(_LOG_T0)), _SQRT3 - 1.5),
            ),
            CheckSpec(
                "V8-delta",
                "Hankel integral is independent of the contour distance delta",
                "Cauchy deformation invariance",
                "match",
                None,
                _check_delta_independence,
            ),
            CheckSpec(
                "double-angle",
                "double-angle intermediate form agrees with R0",
                "x = sin^2(theta) substitution",
                "match",
                None,
                lambda cfg: (double_angle_form(cfg), eval_representation("R0", cfg)),
            ),
            CheckSpec(
                "H1-vs-J1",
                "bilinear map sends the first pre-normal integral to a J1",
                "x = L(t) with L(-1/k,-1,1,1/k) = (5,4,-4,8)",
                "match",
                None,
                lambda cfg: (
                    _linear([(NORMAL_FORM_COEFF, h1_integral(cfg))]),
                    _linear([(CONSTANTS.coeff_a, j1_integral(cfg))]),
                ),
            ),
            CheckSpec(
                "H2-vs-J2",
                "bilinear map sends the second pre-normal integral to -b J2",
                "x = L(t) with L(-1/k,-1,1,1/k) = (8,4,-4,inf)",
                "match",
                None,
                lambda cfg: (
                    _linear([(NORMAL_FORM_COEFF, h2_integral(cfg))]),
                    _linear([(-CONSTANTS.coeff_b, j2_integral(cfg))]),
                ),
            ),
            CheckSpec(
                "constants",
                "exact algebraic relations among the constants",
                "surd identities of the evaluation",
                "match",
                1e-14,
                lambda cfg: (max(abs(v) for v in constant_residuals().values()), 0.0),
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


def _execute(spec: CheckSpec, cfg: QuadratureConfig) -> CheckRecord:
    tolerance = math.nan if spec.tolerance is None else spec.tolerance
    t0 = time.perf_counter()
    try:
        # unpacked from an iterator, so that a wrong number of sides gives
        # the same message on every Python; a float side is exact and free
        (lhs, lhs_err, lhs_evals, lhs_ok), (rhs, rhs_err, rhs_evals, rhs_ok) = (
            side if isinstance(side, Estimate) else Estimate(side, 0.0, 0, True) for side in spec.fn(cfg)
        )
        evals = lhs_evals + rhs_evals
        unconverged = [name for name, ok in (("lhs", lhs_ok), ("rhs", rhs_ok)) if not ok]
        if spec.tolerance is None:
            tolerance = math.fsum([lhs_err, rhs_err]) + 4.0 * _EPS * max(abs(lhs), abs(rhs))
        # max keeps a NaN in first place, so a NaN side reaches _status
        abs_diff = max(lhs - rhs, 0.0) if spec.kind == "bound" else abs(lhs - rhs)
        status = _status(spec.kind, abs_diff, tolerance)
        reason = "the difference is NaN" if status == "no-converge" else None
        if unconverged:
            status, reason = "no-converge", f"{' and '.join(unconverged)} did not converge"
    except Exception as exc:
        # isolation: a broken or non-convergent check must not stop the run
        lhs = rhs = abs_diff = math.nan
        evals = 0
        if isinstance(exc, (ArithmeticError, ValueError)):
            status, reason = "no-converge", str(exc)
        else:
            status, reason = "error", f"{type(exc).__name__}: {exc}"
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
        wall_time_ms=round((time.perf_counter() - t0) * 1000.0, 3),
        kind=spec.kind,
        reason=reason,
    )


def run_checks(selection: Iterable[str] | None = None, cfg: QuadratureConfig = DEFAULT_CONFIG) -> Report:
    """Run the selected checks (all of them when selection is empty or
    None), one after another in catalog order.

    A repeated id counts once, and the config echo names each id once, in
    the order given. Unknown ids raise UnknownCheckError; a selection that
    is a str or bytes, is not iterable, or holds anything but str ids, or a
    cfg that is not a QuadratureConfig, raises TypeError. A failing check
    never prevents later checks from running.
    """
    if isinstance(selection, (str, bytes)) or not isinstance(selection, (Iterable, type(None))):
        raise TypeError(f"selection must be a list of check ids, not {selection!r}")
    selection = list(selection or ())
    if not all(isinstance(cid, str) for cid in selection):
        raise TypeError(f"selection must be check ids of type str, got {selection!r}")
    selection = list(dict.fromkeys(selection))  # each id once, in the order given
    if not isinstance(cfg, QuadratureConfig):
        raise TypeError(f"cfg must be a QuadratureConfig, got {type(cfg).__name__}")
    known = catalog_ids()
    missing = [cid for cid in selection if cid not in known]
    if missing:
        raise UnknownCheckError(f"unknown check id(s): {', '.join(missing)}")
    chosen = [spec for spec in _CATALOG if not selection or spec.id in selection]

    token = _MEMO.set({})
    try:
        records = [_execute(spec, cfg) for spec in chosen]
    finally:
        _MEMO.reset(token)
    overall = "pass" if all(r.status == "pass" for r in records) else "fail"
    only = ",".join(selection) if selection else "-"
    echo = f"abs_tol={cfg.abs_tol:g} max_evals={cfg.max_evals} only={only}"
    return Report(records=records, tool_version=__version__, config_echo=echo, overall=overall)


# ---------------------------------------------------------------------------
# rendering


def _fmt(x: float, spec: str) -> str:
    return "n/a" if math.isnan(x) else format(x, spec)


def render_table(report: Report) -> str:
    header = (
        f"{'ID':<14} {'LHS':>18} {'RHS':>18} {'|DIFF|':>10} {'TOL':>10} "
        f"{'STATUS':<11} ANCHOR"
    )
    lines = [header, "-" * len(header)]
    for r in report.records:
        lines.append(
            f"{r.id:<14} {_fmt(r.lhs, '.12g'):>18} {_fmt(r.rhs, '.12g'):>18} "
            f"{_fmt(r.abs_diff, '.2e'):>10} {_fmt(r.tolerance, '.2e'):>10} {r.status:<11} {r.paper_anchor}"
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
    import json  # here alone, so that a table or --list run never loads it

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
