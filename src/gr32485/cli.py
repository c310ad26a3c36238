"""Command line front end: run the check suite, print a table or JSON.

Exit codes: 0 when every selected check passes, 1 on any fail,
no-converge or error, 2 on a usage error. Neither check tolerances nor
the quadrature config are flags: every run computes the committed report
(tests/report.json). No environment variables are consulted; behaviour
is a function of the flags alone.

The flags are a fixed set of four, so they are parsed here directly:
an argument-parsing library would cost a verify process more to import
than the parse is worth.
"""

from __future__ import annotations

import sys

from .verifier import UnknownCheckError, catalog, render_json, render_table, run_checks

USAGE = "usage: verify [-h] [--only ID[,ID...]] [--json] [--list]\n"

# fixed text, no wider than 78 columns on any terminal
HELP = USAGE + """
Re-evaluate Gradshteyn-Ryzhik entry 3.248.5 through every independent
representation and certify that they agree with each other, disagree with the
tabulated pi/(2 sqrt(6)), and match the elliptic-integral closed form.

options:
  -h, --help         show this help message and exit
  --only ID[,ID...]  comma-separated check ids to run (default: the whole
                     catalog)
  --json             emit the machine-readable report
  --list             print the check catalog and exit
"""


def _usage_error(message: str) -> SystemExit:
    sys.stderr.write(f"{USAGE}verify: error: {message}\n")
    return SystemExit(2)


def _parse(argv: list[str]) -> tuple[str | None, bool, bool]:
    """Return (only, json, list) from argv, left to right.

    ``-h``/``--help`` prints the help and exits 0 where it stands; a
    missing ``--only`` value is an error where it stands; tokens that name
    no option are reported together once every token is read.
    """
    only, as_json, as_list = None, False, False
    unknown = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(HELP)
            raise SystemExit(0)
        if token == "--json":
            as_json = True
        elif token == "--list":
            as_list = True
        elif token == "--only":
            only = next(tokens, None)
            if only is None or only.startswith("-"):
                raise _usage_error("argument --only: expected one argument")
        elif token.startswith("--only="):
            only = token[len("--only="):]
        else:
            unknown.append(token)
    if unknown:
        raise _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return only, as_json, as_list


def main(argv: list[str] | None = None) -> int:
    only, as_json, as_list = _parse(sys.argv[1:] if argv is None else argv)

    if as_list:
        for spec in catalog():
            sys.stdout.write(f"{spec.id:<14} {spec.description}  [{spec.anchor}]\n")
        return 0

    selection = None
    if only is not None:
        selection = [token.strip() for token in only.split(",") if token.strip()]
        if not selection:
            sys.stderr.write(f"verify: --only {only!r} names no check id\n")
            return 2

    try:
        report = run_checks(selection)
    except UnknownCheckError as exc:
        sys.stderr.write(f"verify: {exc}\n")
        return 2

    sys.stdout.write(render_json(report) if as_json else render_table(report))
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
