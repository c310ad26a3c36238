"""Benchmark of the gr32485 certifier.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Workloads are described in workloads.py; metric names, units and bounds
are read from BENCHMARK.json next to this directory. The package is
imported from ``src/`` of the checkout; nothing is installed.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off: the median and tail of each operation's wall time divided
by a fixed reference loop timed just before it (see
workloads.REFERENCE_ITERATIONS), and the set-up time in seconds, each
sample likewise divided by the reference loop and scaled to its nominal
duration. The raw wall times are printed beside them, under the names
each workload gives them.

With ``--trace 1`` it reports the per-layer metrics: kernel timings and
route accuracy, then alternating untraced and traced slices of the
workload, whose ratio is the tracing overhead. The elliptic-oracle calls
none of the certificate's own layers (contour, series, special,
representations, verifier), so its traced run takes those rows from
traced run_checks() calls instead of reporting them as zero.

Every metric is printed with its unit and sample count; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The tail percentile of each workload, keeping at least ten samples
# beyond it in a run of the configured length. The elliptic-oracle's
# operations exclude the n -> 1 points (see workloads.near_pole), so its
# tail is that of the points the engine handles.
TAIL = {"verify-cli": 0.90, "catalog": 0.90, "elliptic-oracle": 0.99}

# Shares of --seconds in a traced run. The elliptic-oracle calls none of
# the certificate's own layers, so its traced run spends CERTIFICATE_SHARE
# of its traced time on run_checks() calls that fill their rows.
KERNEL_SHARE = 0.15
UNTRACED_SHARE = 0.30
TRACED_SHARE = 0.55
CERTIFICATE_SHARE = 0.15
# Untraced and traced slices alternate, so that both see the same drift in
# the host's speed and their ratio measures the tracing alone.
TRACE_ROUNDS = 3
CERTIFICATE_LAYERS = ("contour.", "series.", "special.", "route.", "verifier.")

_QR, _QC = "quadrature.integrate", "quadrature.integrate_complex"
_HE, _HR = "contour.hankel_exp_integral", "contour.hankel_resolvent_integral"
_U = ("series.u_value", "series.u_series", "series.u_integral")
_HS = ("series.hankel_series", "series.hankel_series_term")
_DS = ("series.double_series_I", "series.inner_k_sum")
_SPECIAL = tuple(
    f"special.{n}" for n in ("gamma", "log_gamma", "pochhammer_half", "central_binomial_ratio")
)
_ELLIPTIC = tuple(
    f"elliptic.{n}"
    for n in ("carlson_rf", "carlson_rj", "complete_K", "complete_Pi", "incomplete_F", "landen_residual")
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share
    q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(totals: dict, ops: int) -> dict[str, tuple[float, int]]:
    """Per-layer metrics, per operation of the workload, from tracer totals."""

    def s(key, field):
        return totals.get(key, {}).get(field, 0)

    def total(keys, field):
        return sum(s(k, field) for k in keys)

    def per(value):
        return (value / ops if ops else 0.0, ops)

    runs = s("verifier.run_checks", "calls")
    true_evals = total((_QR, _QC), "evals")
    reported = s("verifier.run_checks", "reported_evals")
    rows = {
        "quadrature.real.calls": per(s(_QR, "calls")),
        "quadrature.real.integrand_calls": per(s(_QR, "evals")),
        "quadrature.complex.calls": per(s(_QC, "calls")),
        "quadrature.complex.integrand_calls": per(s(_QC, "evals")),
        "quadrature.busy_s": per(total((_QR, _QC), "busy")),
        "quadrature.wait_s": per(total((_QR, _QC), "self_wall") - total((_QR, _QC), "self_cpu")),
        "quadrature.unconverged": per(total((_QR, _QC), "unconverged")),
        "quadrature.evals_mismatches": (total((_QR, _QC), "mismatches"), total((_QR, _QC), "calls")),
        "contour.hankel_exp.calls": per(s(_HE, "calls")),
        "contour.hankel_exp.integrand_calls": per(s(_HE, "incl_evals")),
        "contour.hankel_exp.busy_s": per(s(_HE, "busy")),
        "contour.resolvent.calls": per(s(_HR, "calls")),
        "contour.resolvent.integrand_calls": per(s(_HR, "incl_evals")),
        "contour.resolvent.busy_s": per(s(_HR, "busy")),
        "series.u_value.calls": per(s("series.u_value", "calls")),
        "series.u_value.busy_s": per(total(_U, "busy")),
        "series.hankel_series.calls": per(s("series.hankel_series", "calls")),
        "series.hankel_series.busy_s": per(total(_HS, "busy")),
        "series.double_series.busy_s": per(total(_DS, "busy")),
        "special.calls": per(total(_SPECIAL, "calls")),
        "special.busy_s": per(total(_SPECIAL, "busy")),
        "elliptic.carlson_rf.calls": per(s("elliptic.carlson_rf", "calls")),
        "elliptic.carlson_rj.calls": per(s("elliptic.carlson_rj", "calls")),
        "elliptic.busy_s": per(total(_ELLIPTIC, "busy")),
        "verifier.self_s": (s("verifier.run_checks", "run_self") / runs if runs else 0.0, runs),
        "verifier.wait_s": (s("verifier.run_checks", "run_wait") / runs if runs else 0.0, runs),
        "verifier.r0_evaluations": (s("route.R0", "calls") / runs if runs else 0.0, runs),
        "verifier.reported_evals": (reported / runs if runs else 0.0, runs),
        "verifier.evals_honesty": (reported / true_evals if runs and true_evals else 0.0, runs),
    }
    for i in range(13):
        key = f"route.R{i}"
        rows[f"{key}.s"] = per(s(key, "wall"))
        rows[f"{key}.integrand_calls"] = per(s(key, "incl_evals"))
    return rows


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_phase(workload: str, seconds: float, seed: int, traced: bool, between=None):
    import workloads

    if workload == "verify-cli":
        return workloads.verify_cli(ROOT, _env(), seconds, traced, between)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if workload == "catalog":
            return workloads.catalog(seconds, tracer, between)
        return workloads.elliptic_oracle(seconds, seed, tracer, between)
    finally:
        if tracer is not None:
            tracer.uninstall()


def end_to_end(workload: str, seed: int, seconds: float):
    import probes
    from workloads import REFERENCE_NOMINAL_S

    probes.warm_bytecode(ROOT, _env())
    sampler = probes.SetupSampler(ROOT, _env(), seconds)
    phase = _run_phase(workload, seconds, seed, False, sampler)
    n = len(phase.times)
    ratios = [t / r for t, r in zip(phase.times, phase.refs)]
    setup = [t / r * REFERENCE_NOMINAL_S for t, r in zip(sampler.times, sampler.refs)]
    rows = {
        "op_median_ref": (statistics.median(ratios), n),
        "op_tail_ref": (percentile(ratios, TAIL[workload]), n),
        "setup_s": (statistics.median(setup), len(setup)),
    }
    notes = {
        "setup_raw_s": (statistics.median(sampler.times), len(setup)),
        "reference_ms": (statistics.median(phase.refs) * 1e3, n),
        **_named(workload, phase),
        "failed_frac": (phase.failed / n, n),
    }
    if workload == "elliptic-oracle":
        notes.update(near_failures([phase]))
    return rows, notes, [phase], 0


# Timings printed under the names each workload gives them, besides the
# contract metrics.
NOTE_UNITS = {
    "setup_raw_s": "s",
    "reference_ms": "ms",
    "verify_s": "s",
    "verify_p90_s": "s",
    "catalog_s": "s",
    "catalog_p90_s": "s",
    "closed_form_us": "us",
    "oracle_us": "us",
    "oracle_p99_us": "us",
    "near1_unconverged_frac": "ratio",
    "near1_off_tol_frac": "ratio",
    "near1_point_ms": "ms",
    "near1_time_share": "ratio",
    "failed_frac": "ratio",
}
# On elliptic-oracle the per-layer rows count the points outside the
# n -> 1 region; these rows of the region's points print beside them.
NEAR_LAYERS = ("quadrature.real.", "quadrature.busy_s", "quadrature.unconverged", "elliptic.")


def _named(workload: str, phase) -> dict[str, tuple[float, int]]:
    """The same timings under the names the workload gives them."""
    times = phase.times
    n = len(times)
    if workload == "verify-cli":
        return {
            "verify_s": (statistics.median(times), n),
            "verify_p90_s": (percentile(times, TAIL[workload]), n),
        }
    if workload == "catalog":
        return {
            "catalog_s": (statistics.median(times), n),
            "catalog_p90_s": (percentile(times, TAIL[workload]), n),
        }
    closed = [v for v in phase.extra["closed"] if not math.isnan(v)]
    quad = [v for v in phase.extra["quad"] if not math.isnan(v)]
    near = phase.extra["near_times"]
    return {
        "closed_form_us": (statistics.median(closed) * 1e6, len(closed)),
        "oracle_us": (statistics.median(quad) * 1e6, len(quad)),
        "oracle_p99_us": (percentile(quad, 0.99) * 1e6, len(quad)),
        "near1_point_ms": (statistics.median(near) * 1e3, len(near)),
        "near1_time_share": (sum(near) / (sum(near) + sum(times)), len(near)),
    }


def near_failures(phases) -> dict[str, tuple[float, int]]:
    """The engine's known n -> 1 defect: shares of the oracle's n -> 1
    points that did not converge, or converged farther from Carlson than
    the oracle's tolerance. Zero, over no points, on other workloads."""
    n = sum(len(p.extra.get("near_times", ())) for p in phases)
    unconverged = sum(p.extra.get("near_unconverged", 0) for p in phases)
    off = sum(p.extra.get("near_off", 0) for p in phases)
    return {
        "near1_unconverged_frac": (unconverged / n if n else 0.0, n),
        "near1_off_tol_frac": (off / n if n else 0.0, n),
    }


def per_layer(workload: str, seed: int, seconds: float):
    import probes

    probes.warm_bytecode(ROOT, _env())
    start = probes.python_start_times(ROOT, _env())
    rows = {"python.start_s": (statistics.median(start), len(start))}
    rows.update(probes.kernel_rows(KERNEL_SHARE * seconds))
    rows.update(probes.route_accuracy())

    traced_share = TRACED_SHARE
    phases = []
    if workload == "elliptic-oracle":
        traced_share -= CERTIFICATE_SHARE
        cert = _run_phase("catalog", CERTIFICATE_SHARE * seconds, seed, traced=True)
        rows.update(layer_metrics(cert.totals, len(cert.times)))
        phases.append(cert)
    from workloads import Phase

    plain, traced = Phase(), Phase()
    for _ in range(TRACE_ROUNDS):
        plain.extend(_run_phase(workload, UNTRACED_SHARE * seconds / TRACE_ROUNDS, seed, traced=False))
        traced.extend(_run_phase(workload, traced_share * seconds / TRACE_ROUNDS, seed, traced=True))
    notes = _named(workload, plain)
    if workload == "verify-cli":
        ops = traced.extra.get("traced_ops", 0)
    else:
        ops = len(traced.times)
    own = layer_metrics(traced.totals, ops)
    if workload == "elliptic-oracle":
        own = {k: v for k, v in own.items() if not k.startswith(CERTIFICATE_LAYERS)}
        near = layer_metrics(traced.near_totals, len(traced.extra["near_times"]))
        notes.update({f"near1.{k}": v for k, v in near.items() if k.startswith(NEAR_LAYERS)})
    rows.update(own)
    rows.update(near_failures([plain, traced]))
    rows["trace.overhead_frac"] = (
        statistics.median(traced.times) / statistics.median(plain.times) - 1.0,
        len(traced.times),
    )
    attempted = len(plain.times) + len(traced.times)
    rows["failed_frac"] = ((plain.failed + traced.failed) / attempted, attempted)
    phases += [plain, traced]
    mismatches = sum(
        totals.get(key, {}).get("mismatches", 0)
        for p in phases
        for totals in (p.totals, p.near_totals)
        for key in (_QR, _QC)
    )
    return rows, notes, phases, mismatches


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "gr32485" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package sources at {SRC / 'gr32485'}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import gr32485

    if Path(gr32485.__file__).resolve().parent != (SRC / "gr32485").resolve():
        sys.stderr.write(f"perfbench: imported gr32485 from {gr32485.__file__}, not {SRC}\n")
        return 2

    measure = per_layer if args.trace else end_to_end
    rows, notes, phases, mismatches = measure(args.workload, args.seed, args.seconds)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(rows) != {m["name"] for m in wanted}:
        missing = {m["name"] for m in wanted} ^ set(rows)
        sys.stderr.write(f"perfbench: metric set differs from BENCHMARK.json: {sorted(missing)}\n")
        return 2
    units = {m["name"]: m["unit"] for m in wanted}

    units.update(NOTE_UNITS)
    units.update({f"near1.{m['name']}": m["unit"] for m in spec["per_layer"]})
    for name, (value, samples) in {**rows, **notes}.items():
        print(f"{name:<40} {value:>16.8g} {units[name]:<6} n={samples}")

    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    if failed:
        print(
            f"{failed} failures make the run incorrect "
            "(failed certificates, exceptions, or oracle points failed outside the n -> 1 region)"
        )
    if mismatches:
        print(f"{mismatches} engine calls reported evals unequal to their integrand calls")
    result = {
        "correct": failed == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in rows.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
