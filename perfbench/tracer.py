"""Outside-in tracer for the gr32485 layers.

The tracer wraps the public kernel functions of each layer in every
``gr32485.*`` module namespace that binds them (callers use
``from .x import f``, so patching only the defining module would miss
them). Each wrapped call is a span that records wall time
(``time.perf_counter``) and thread CPU time (``time.thread_time``) and
keeps its parent on a per-thread stack, because ``run_checks`` runs its
checks on a worker pool.

Only kernel calls are spans. Per-node helpers such as ``nested_radical``
or ``phi`` run tens of thousands of times per catalog; spanning them
would cost more than the work they time. The integrand handed to
``integrate``/``integrate_complex`` is wrapped instead by a counter that
also sums the time spent inside it, so that

* the engine's own time (nodes, error estimates, the panel heap) is
  reported as quadrature time, and
* the time of the integrand body, minus any spans nested inside it, is
  credited to the span that called the engine (the contour, the route,
  the U(t) kernel ...), which owns that integrand.

Spans are folded into per-name totals in memory; ``totals()`` returns
them as plain data that can cross a process boundary as JSON.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# Layer module -> public functions whose calls become spans. A name that
# a later version removes is skipped.
SPANNED = {
    "quadrature": ("integrate", "integrate_complex"),
    "contour": ("hankel_exp_integral", "hankel_resolvent_integral"),
    "series": (
        "u_value",
        "u_series",
        "u_integral",
        "hankel_series",
        "hankel_series_term",
        "inner_k_sum",
        "double_series_I",
    ),
    "special": ("gamma", "log_gamma", "pochhammer_half", "central_binomial_ratio"),
    "elliptic": (
        "carlson_rf",
        "carlson_rj",
        "complete_K",
        "complete_Pi",
        "incomplete_F",
        "landen_residual",
    ),
    "representations": (
        "eval_representation",
        "bf_identity",
        "double_angle_form",
        "h1_integral",
        "h2_integral",
        "j1_integral",
        "j2_integral",
        "constant_residuals",
    ),
    "verifier": ("run_checks",),
}

ENGINES = ("quadrature.integrate", "quadrature.integrate_complex")

_FIELDS = (
    "calls",  # completed spans
    "wall",  # inclusive wall time
    "self_wall",  # wall minus child spans
    "self_cpu",  # thread CPU time minus child spans
    "busy",  # time of the layer's own code (see module docstring)
    "evals",  # integrand calls made by this engine call itself
    "incl_evals",  # integrand calls made anywhere under the span
    "unconverged",  # engine results with converged=False
    "mismatches",  # engine results whose evals differ from the counted calls
    "run_self",  # run_checks wall not covered by any check span
    "run_wait",  # check spans' wall minus their thread CPU time
    "reported_evals",  # sum of record evals in the returned report
)


class _Frame:
    __slots__ = ("child_wall", "child_cpu", "child_evals", "integrand_wall", "evals", "credit")

    def __init__(self) -> None:
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.child_evals = 0
        self.integrand_wall = 0.0
        self.evals = 0
        self.credit = 0.0  # integrand time of engine calls this span made


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._roots: list[tuple[int, float, float, float]] = []
        self._collect_roots = 0
        self.reset()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every spanned function wherever a gr32485 module binds it."""
        import gr32485.cli  # noqa: F401  (loads every layer)

        wrappers = {}
        for layer, names in SPANNED.items():
            module = sys.modules.get(f"gr32485.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "gr32485" and not modname.startswith("gr32485."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results ------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._stats: dict[str, dict[str, float]] = {}

    def totals(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {key: dict(stat) for key, stat in self._stats.items()}

    # -- spans --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn):
        if key in ENGINES:
            return self._wrap_engine(key, fn)
        if key == "representations.eval_representation":
            return self._wrap_span(lambda a, kw: f"route.{a[0] if a else kw['rep_id']}", fn)
        if key == "verifier.run_checks":
            return self._wrap_run_checks(key, fn)
        return self._wrap_span(lambda a, kw: key, fn)

    def _enter(self):
        stack = self._stack()
        frame = _Frame()
        stack.append(frame)
        return stack, frame, time.perf_counter(), time.thread_time()

    def _leave(self, key, stack, frame, t0, c0, engine=False, result=None):
        t1 = time.perf_counter()
        wall = t1 - t0
        cpu = time.thread_time() - c0
        stack.pop()
        parent = stack[-1] if stack else None
        incl_evals = frame.evals + frame.child_evals
        if engine:
            busy = wall - frame.integrand_wall
            if parent is not None:
                parent.credit += frame.integrand_wall - frame.child_wall
        else:
            busy = wall - frame.child_wall + frame.credit
        if parent is not None:
            parent.child_wall += wall
            parent.child_cpu += cpu
            parent.child_evals += incl_evals
        with self._lock:
            stat = self._stats.get(key)
            if stat is None:
                stat = self._stats[key] = dict.fromkeys(_FIELDS, 0)
            stat["calls"] += 1
            stat["wall"] += wall
            stat["self_wall"] += wall - frame.child_wall
            stat["self_cpu"] += cpu - frame.child_cpu
            stat["busy"] += busy
            stat["evals"] += frame.evals
            stat["incl_evals"] += incl_evals
            if engine and result is not None:
                stat["unconverged"] += not result.converged
                stat["mismatches"] += result.evals != frame.evals
            if parent is None and self._collect_roots:
                self._roots.append((threading.get_ident(), t0, t1, wall - cpu))
        return stat

    def _wrap_span(self, key_of, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            key = key_of(args, kwargs)
            stack, frame, t0, c0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(key, stack, frame, t0, c0)

        return span

    def _wrap_engine(self, key, fn):
        @functools.wraps(fn)
        def engine(*args, **kwargs):
            stack, frame, t0, c0 = self._enter()
            f = args[0] if args else kwargs.pop("f")
            perf = time.perf_counter

            def counted(x):
                start = perf()
                value = f(x)
                frame.integrand_wall += perf() - start
                frame.evals += 1
                return value

            result = None
            try:
                result = fn(counted, *args[1:], **kwargs)
                return result
            finally:
                self._leave(key, stack, frame, t0, c0, engine=True, result=result)

        return engine

    def _wrap_run_checks(self, key, fn):
        @functools.wraps(fn)
        def run_checks(*args, **kwargs):
            me = threading.get_ident()
            with self._lock:
                self._collect_roots += 1
                mark = len(self._roots)
            stack, frame, t0, c0 = self._enter()
            report = None
            try:
                report = fn(*args, **kwargs)
                return report
            finally:
                t1 = time.perf_counter()
                with self._lock:
                    roots = [r for r in self._roots[mark:] if r[0] != me]
                    self._collect_roots -= 1
                    if not self._collect_roots:
                        self._roots.clear()
                stat = self._leave(key, stack, frame, t0, c0)
                reported = sum(r.evals for r in report.records) if report else 0
                with self._lock:
                    stat["run_self"] += (t1 - t0) - _covered(roots, t0, t1)
                    stat["run_wait"] += sum(r[3] for r in roots)
                    stat["reported_evals"] += reported

        return run_checks


def _covered(roots, t0: float, t1: float) -> float:
    """Length of [t0, t1] covered by the union of the root span intervals."""
    total = 0.0
    end = t0
    for _, a, b, _ in sorted(roots, key=lambda r: r[1]):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total
