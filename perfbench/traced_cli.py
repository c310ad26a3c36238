"""``verify --json`` under the tracer.

Run with the package sources on PYTHONPATH. Prints the verify report on
standard output exactly as ``python -m gr32485 --json`` would, then
writes the tracer totals as one JSON line on standard error. Exits with
the verify exit code.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from gr32485 import cli

    code = cli.main(["--json"])
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.totals()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
