"""Measurements every run makes besides its workload loop: interpreter
start-up, kernel timings, and the accuracy of each route against the
40-digit reference."""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROUTE_IDS, reference_seconds, route_error

PROCESS_SAMPLES = 9


def process_wall(root: Path, env: dict, code: str, samples: int = PROCESS_SAMPLES) -> list[float]:
    """Wall seconds of ``samples`` fresh interpreters running ``code``."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


SETUP_CODE = "import gr32485.cli"


def warm_bytecode(root: Path, env: dict) -> None:
    """One untimed import writes the bytecode cache that installed copies ship."""
    process_wall(root, env, SETUP_CODE, samples=1)


class SetupSampler:
    """Times a fresh interpreter until ``import gr32485.cli`` returns, at
    even intervals over a run: called between operations, it takes a
    sample whenever the next one is due, each with the reference loop
    timed just before it. The host's speed drifts over seconds, so samples
    spread over the run give a steadier median than samples taken back to
    back."""

    def __init__(self, root: Path, env: dict, seconds: float, samples: int = 15):
        self.root, self.env = root, env
        self.interval = seconds / samples
        self.due = time.perf_counter()
        self.times: list[float] = []
        self.refs: list[float] = []

    def __call__(self) -> None:
        if time.perf_counter() >= self.due:
            self.refs.append(reference_seconds())
            self.times += process_wall(self.root, self.env, SETUP_CODE, samples=1)
            self.due += self.interval


def python_start_times(root: Path, env: dict) -> list[float]:
    """A bare interpreter: the floor under every verify process."""
    return process_wall(root, env, "pass")


# ---------------------------------------------------------------------------
# kernels: the baseline table, timed through public calls only


def _kernels():
    import gr32485 as lib
    from gr32485.verifier import render_json, run_checks

    smooth = lib.Interval(0.0, 1.0)
    report = run_checks()
    return (
        ("kernel.gk15_panel_us", 1e6, lambda: lib.integrate(math.exp, smooth)),
        ("kernel.carlson_rf_us", 1e6, lambda: lib.carlson_rf(0.5, 1.25, 2.0)),
        ("kernel.carlson_rj_us", 1e6, lambda: lib.carlson_rj(0.5, 1.25, 2.0, 0.75)),
        ("kernel.u_integral_t10_us", 1e6, lambda: lib.u_integral(10.0)),
        ("kernel.hankel_series_t5_us", 1e6, lambda: lib.hankel_series(5.0)),
        ("kernel.hankel_exp_t1_ms", 1e3, lambda: lib.hankel_exp_integral(1.0)),
        ("kernel.hankel_exp_t10_ms", 1e3, lambda: lib.hankel_exp_integral(10.0)),
        ("kernel.hankel_exp_t40_ms", 1e3, lambda: lib.hankel_exp_integral(40.0)),
        ("kernel.resolvent_c1_ms", 1e3, lambda: lib.hankel_resolvent_integral(1.0)),
        ("cli.render_json_s", 1.0, lambda: render_json(report)),
    )


KERNEL_ROUNDS = 5


def kernel_rows(seconds: float) -> dict[str, tuple[float, int]]:
    """Per-call time of each kernel, and of rendering a full report as
    JSON: the median over KERNEL_ROUNDS rounds of a loop lasting about
    seconds / (rows * rounds). Rows whose result carries ``evals`` also
    report that count under ``<row minus unit>_evals``."""
    kernels = _kernels()
    slot = seconds / (len(kernels) * KERNEL_ROUNDS)
    rows = {}
    for name, scale, call in kernels:
        result = call()
        per_call = []
        for _ in range(KERNEL_ROUNDS):
            calls = 0
            t0 = time.perf_counter()
            while True:
                call()
                calls += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= slot:
                    break
            per_call.append(elapsed / calls)
        rows[name] = (statistics.median(per_call) * scale, KERNEL_ROUNDS)
        evals = getattr(result, "evals", None)
        if evals is not None:
            rows[f"{name.rsplit('_', 1)[0]}_evals"] = (evals, 1)
    return rows


# ---------------------------------------------------------------------------
# accuracy oracle


def route_accuracy() -> dict[str, tuple[float, int]]:
    """|route - I| and its ratio to the route's own error_estimate, for
    every route through eval_representation with default configuration."""
    from gr32485 import eval_representation

    rows = {}
    underclaimed = 0
    for rep_id in ROUTE_IDS:
        res = eval_representation(rep_id)
        err = route_error(res.value)
        if res.error_estimate > 0.0:
            ratio = err / res.error_estimate
        else:
            ratio = 0.0 if err == 0.0 else sys.float_info.max
        underclaimed += ratio > 1.0
        rows[f"route.{rep_id}.err"] = (err, 1)
        rows[f"route.{rep_id}.err_ratio"] = (ratio, 1)
    rows["underclaimed_routes"] = (underclaimed, len(ROUTE_IDS))
    return rows
