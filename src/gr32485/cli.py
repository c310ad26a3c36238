"""Command line front end: run the check suite, print a table or JSON.

Exit codes: 0 when every selected check passes, 1 on any fail,
no-converge or error, 2 on a usage error. No environment variables are
consulted; behaviour is a function of the flags alone.
"""

from __future__ import annotations

import argparse
import sys

from .quadrature import QuadratureConfig
from .series import SeriesConfig
from .verifier import (
    catalog,
    render_json,
    render_table,
    run_checks,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description=(
            "Re-evaluate Gradshteyn-Ryzhik entry 3.248.5 through every "
            "independent representation and certify that they agree with "
            "each other, disagree with the tabulated pi/(2 sqrt(6)), and "
            "match the elliptic-integral closed form."
        ),
    )
    parser.add_argument(
        "--only",
        metavar="ID[,ID...]",
        help="comma-separated check ids to run (default: the whole catalog)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        metavar="X",
        help="tolerance for quadrature-vs-quadrature checks (default 1e-9)",
    )
    parser.add_argument(
        "--series-tol",
        type=float,
        default=1e-5,
        metavar="X",
        help="tolerance for series-based checks R2 and R3 (default 1e-5)",
    )
    parser.add_argument(
        "--max-evals",
        type=int,
        default=200_000,
        metavar="N",
        help="integrand evaluation budget per quadrature (default 200000)",
    )
    parser.add_argument(
        "--timeout-secs",
        type=float,
        default=30.0,
        metavar="N",
        help="per-check time budget; slower checks report no-converge (default 30)",
    )
    parser.add_argument("--json", action="store_true", help="emit the machine-readable report")
    parser.add_argument("--list", action="store_true", help="print the check catalog and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list:
        for spec in catalog():
            sys.stdout.write(f"{spec.id:<14} {spec.description}  [{spec.anchor}]\n")
        return 0

    selection = None
    if args.only:
        selection = [token.strip() for token in args.only.split(",") if token.strip()]

    try:
        report = run_checks(
            selection,
            QuadratureConfig(abs_tol=1e-12, max_evals=args.max_evals),
            SeriesConfig(),
            tol=args.tol,
            series_tol=args.series_tol,
            timeout_secs=args.timeout_secs,
        )
    except ValueError as exc:
        # unknown ids, and budgets or tolerances that are not positive and finite
        sys.stderr.write(f"verify: {exc}\n")
        return 2

    sys.stdout.write(render_json(report) if args.json else render_table(report))
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
