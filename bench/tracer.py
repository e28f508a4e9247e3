"""Span tracing of icaprobe's public functions, installed from outside.

The tracer replaces every module-global binding that *is* one of the
traced public functions with a timing wrapper.  Rebinding only the
defining module would miss calls: ``from .maxent import solve_f0`` copies
the function object into ``projsearch`` and ``cli``, and those modules
call their own copy.  So every ``icaprobe`` module is scanned for the
original objects.  :meth:`Tracer.restore` puts each binding back.

Spans are kept in memory.  Each thread has its own stack of open spans;
``projsearch.sweep`` evaluates directions on pool threads, so a span that
opens on a thread with an empty stack takes as parent the innermost open
span of the thread that installed the tracer (the thread blocked in the
pool).  Self time is a span's duration minus the union of its children's
intervals, since children on different threads overlap.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

#: (module, function, span name).  The span name is the layer prefix of
#: the per-layer metrics computed in :func:`layer_metrics`.
TARGETS = (
    ("icaprobe.quadrature", "gaussian_weighted_rule", "quadrature.rule"),
    ("icaprobe.quadrature", "integrate_interval", "quadrature.interval"),
    ("icaprobe.maxent", "solve_f0", "maxent.solve"),
    ("icaprobe.maxent", "entropy_by_quadrature", "maxent.entropy"),
    ("icaprobe.maxent", "sup_error", "maxent.sup_error"),
    ("icaprobe.maxent", "uniform_mixture_case", "maxent.uniform_mixture"),
    ("icaprobe.contrast", "c_value", "contrast.c_value"),
    ("icaprobe.contrast", "fastica_contrast", "contrast.fastica_contrast"),
    ("icaprobe.contrast", "kurtosis_contrast", "contrast.kurtosis"),
    ("icaprobe.contrast", "build_k", "contrast.build_k"),
    ("icaprobe.entropy", "mspacing_entropy", "entropy.mspacing"),
    ("icaprobe.entropy", "kde", "entropy.kde"),
    ("icaprobe.projsearch", "sweep", "projsearch.sweep"),
    ("icaprobe.projsearch", "optimize_direction", "projsearch.optimize"),
    ("icaprobe.fastica", "deflation", "fastica.deflation"),
    ("icaprobe.fastica", "fixed_point_step", "fastica.step"),
    ("icaprobe.whiten", "whiten", "whiten"),
    ("icaprobe.datagen", "gen_banded_gaussian", "datagen.gen"),
    ("icaprobe.datagen", "gen_mixed_sources", "datagen.gen"),
    ("icaprobe.cli", "cmd_generate", "cli.command.generate"),
    ("icaprobe.cli", "cmd_sweep", "cli.command.sweep"),
    ("icaprobe.cli", "cmd_densities", "cli.command.densities"),
    ("icaprobe.cli", "cmd_ica", "cli.command.ica"),
    ("icaprobe.cli", "cmd_rates", "cli.command.rates"),
    ("icaprobe.manifest", "write_manifest", "manifest.write"),
    ("icaprobe.svgplot", "scatter", "svgplot.render"),
    ("icaprobe.svgplot", "stacked_panels", "svgplot.render"),
    ("icaprobe.svgplot", "overlay", "svgplot.render"),
    ("icaprobe.svgplot", "loglog", "svgplot.render"),
)

CLI_COMMANDS = ("generate", "sweep", "densities", "ica", "rates")

#: Per-layer metrics: (name, unit, span name, measure), in reported order.
#: Measures: "calls", "s" (busy seconds, summed over threads), "failed"
#: and "failed_s" (calls that raised), "self_s" (see Tracer.self_time),
#: "sum:KEY" and "max:KEY" over a span's extra data.  All but "max:" are
#: per traced pass.  A span name of None marks a metric run.py fills in.
LAYER_METRICS = (
    ("quadrature.rule_cold_s", "s", None, None),
    ("quadrature.rule_calls", "count", "quadrature.rule", "calls"),
    ("quadrature.rule_s", "s", "quadrature.rule", "s"),
    ("quadrature.interval_calls", "count", "quadrature.interval", "calls"),
    ("quadrature.interval_s", "s", "quadrature.interval", "s"),
    ("maxent.solve_calls", "count", "maxent.solve", "calls"),
    ("maxent.solve_s", "s", "maxent.solve", "s"),
    ("maxent.solve_failed", "count", "maxent.solve", "failed"),
    ("maxent.solve_failed_s", "s", "maxent.solve", "failed_s"),
    ("maxent.entropy_calls", "count", "maxent.entropy", "calls"),
    ("maxent.entropy_s", "s", "maxent.entropy", "s"),
    ("maxent.sup_error_s", "s", "maxent.sup_error", "s"),
    ("maxent.uniform_mixture_s", "s", "maxent.uniform_mixture", "s"),
    ("contrast.c_value_s", "s", "contrast.c_value", "s"),
    ("contrast.fastica_contrast_s", "s", "contrast.fastica_contrast", "s"),
    ("contrast.kurtosis_s", "s", "contrast.kurtosis", "s"),
    ("contrast.build_k_s", "s", "contrast.build_k", "s"),
    ("entropy.mspacing_calls", "count", "entropy.mspacing", "calls"),
    ("entropy.mspacing_s", "s", "entropy.mspacing", "s"),
    ("entropy.kde_s", "s", "entropy.kde", "s"),
    ("entropy.kde_alloc_peak_mb", "MB", "entropy.kde", "max:alloc_peak_mb"),
    ("projsearch.sweep_s", "s", "projsearch.sweep", "s"),
    ("projsearch.sweep_self_s", "s", "projsearch.sweep", "self_s"),
    ("projsearch.directions", "count", "projsearch.sweep", "sum:directions"),
    ("projsearch.optimize_calls", "count", "projsearch.optimize", "calls"),
    ("projsearch.optimize_s", "s", "projsearch.optimize", "s"),
    ("projsearch.objective_evals", "count", "projsearch.optimize", "sum:evals"),
    ("fastica.deflation_s", "s", "fastica.deflation", "s"),
    ("fastica.step_calls", "count", "fastica.step", "calls"),
    ("fastica.step_s", "s", "fastica.step", "s"),
    ("fastica.nonconverged", "count", "fastica.deflation", "sum:nonconverged"),
    ("whiten.calls", "count", "whiten", "calls"),
    ("whiten.s", "s", "whiten", "s"),
    ("datagen.gen_s", "s", "datagen.gen", "s"),
    *((f"cli.command_s.{c}", "s", f"cli.command.{c}", "s") for c in CLI_COMMANDS),
    ("manifest.write_s", "s", "manifest.write", "s"),
    ("svgplot.render_s", "s", "svgplot.render", "s"),
    ("trace.pass_s", "s", None, None),
    ("trace.overhead_s", "s", None, None),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    failed: bool = False
    extra: dict = field(default_factory=dict)


def _start_alloc_trace(args, kwargs):
    tracemalloc.start()
    return args, kwargs, tracemalloc.get_traced_memory()[0]


def _stop_alloc_trace(base, result):
    """Peak bytes allocated during the call, above those held at its start.

    The process's peak RSS cannot give this: it is a high-water mark that
    an earlier pass has already set.
    """
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"alloc_peak_mb": (peak - base) / 2**20}


class Tracer:
    """Installs timing wrappers on the traced bindings and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool thread: attribute to the owner's innermost open span
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        with self._lock:
            self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent))
            idx = len(self.spans) - 1
        stack.append(idx)
        return stack, idx

    def _close(self, stack: list[int], idx: int, failed: bool) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.failed = failed
        stack.pop()
        return span

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self
        record = _RECORDERS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if record is not None:
                args, kwargs, state = record.before(args, kwargs)
            stack, idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(stack, idx, failed=True)
                if record is not None:
                    record.abort(state)
                raise
            span = tracer._close(stack, idx, failed=False)
            if record is not None:
                span.extra.update(record.after(state, result))
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every icaprobe module global that is a traced function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for module_name, func_name, span_name in TARGETS:
            fn = getattr(sys.modules[module_name], func_name)
            originals[id(fn)] = (fn, self._wrap(fn, span_name))
        self._owner_stack = self._stack()
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "icaprobe" or module_name.startswith("icaprobe.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    @property
    def bindings(self) -> int:
        """Number of module globals currently rebound."""
        return len(self._saved)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis -----------------------------------------------------------
    def self_time(self, idx: int) -> float:
        """Duration of span idx minus the union of its children's intervals."""
        span = self.spans[idx]
        kids = sorted(
            (s.start, s.end) for s in self.spans if s.parent == idx
        )
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in kids:
            lo, hi = max(lo, span.start), min(hi, span.end)
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (span.end - span.start) - covered


class _Counter:
    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, w):
        self.count += 1
        return self.fn(w)


def _count_objective(args, kwargs):
    """Wrap optimize_direction's contrast callback in an evaluation counter."""
    if "contrast" in kwargs:
        counter = _Counter(kwargs["contrast"])
        return args, {**kwargs, "contrast": counter}, counter
    counter = _Counter(args[1])
    return (args[0], counter, *args[2:]), kwargs, counter


@dataclass(frozen=True)
class _Recorder:
    """Extra span data: ``before`` may rewrite the arguments, ``after`` reads
    the result; ``abort`` releases what ``before`` took when the call raises."""

    before: object
    after: object
    abort: object = lambda state: None


def _pass_through(args, kwargs):
    return args, kwargs, None


_RECORDERS = {
    "optimize_direction": _Recorder(
        _count_objective, lambda counter, result: {"evals": counter.count}
    ),
    "kde": _Recorder(_start_alloc_trace, _stop_alloc_trace, lambda base: tracemalloc.stop()),
    "sweep": _Recorder(
        _pass_through, lambda state, result: {"directions": len(result.thetas)}
    ),
    "deflation": _Recorder(
        _pass_through,
        lambda state, result: {"nonconverged": int((~result.converged).sum())},
    ),
}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """The span-derived LAYER_METRICS, per traced pass."""
    by_name: dict = {}
    for idx, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, []).append(idx)

    def measure(idxs, how):
        spans = [tracer.spans[i] for i in idxs]
        if how == "calls":
            return len(spans)
        if how == "s":
            return sum(s.end - s.start for s in spans)
        if how == "failed":
            return sum(s.failed for s in spans)
        if how == "failed_s":
            return sum(s.end - s.start for s in spans if s.failed)
        if how == "self_s":
            return sum(tracer.self_time(i) for i in idxs)
        kind, key = how.split(":")
        if kind == "sum":
            return sum(s.extra.get(key, 0) for s in spans)
        return max((s.extra.get(key, 0.0) for s in spans), default=0.0)

    return {
        name: measure(by_name.get(span, []), how) / (1 if how.startswith("max:") else passes)
        for name, _, span, how in LAYER_METRICS
        if span is not None
    }
