"""Command line front end: run the check suite, print a table or JSON.

Exit codes: 0 when every selected check passes, 1 on any fail,
no-converge or error, 2 on a usage error. Neither check tolerances nor
the quadrature config are flags: every run computes the committed report
(tests/report.json). No environment variables are consulted; behaviour
is a function of the flags alone.
"""

from __future__ import annotations

import argparse
import sys

from .verifier import UnknownCheckError, catalog, render_json, render_table, run_checks


def _build_parser() -> argparse.ArgumentParser:
    # a fixed width: HelpFormatter would otherwise read $COLUMNS through
    # shutil; 78 is its width when COLUMNS is unset and stdout is no terminal
    parser = argparse.ArgumentParser(
        prog="verify",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
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
    if args.only is not None:
        selection = [token.strip() for token in args.only.split(",") if token.strip()]
        if not selection:
            sys.stderr.write(f"verify: --only {args.only!r} names no check id\n")
            return 2

    try:
        report = run_checks(selection)
    except UnknownCheckError as exc:
        sys.stderr.write(f"verify: {exc}\n")
        return 2

    sys.stdout.write(render_json(report) if args.json else render_table(report))
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
