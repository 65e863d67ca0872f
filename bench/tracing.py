"""In-memory spans around the module-level names each qubitkick layer calls.

The program itself is not instrumented: `instrument()` swaps module
attributes (for example `qubitkick.dynamics._closed_form_batch`) for
wrappers that record a span and a few work counts, and restores them on
exit.  Every caller that looks the name up through its module at call time
then goes through the wrapper, which is how the CLI reaches each layer.

Spans carry a name, start, end, parent and thread.  A span opened on a
thread with no open span of its own (a `ThreadPoolExecutor` worker inside
`run_ensemble`) is parented to the innermost span open on the thread that
created the tracer, i.e. the enclosing `dynamics.run_ensemble` span.

This module imports only the standard library so that importing it does
not shift the set-up time the benchmark measures.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._local.stack = self._owner_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record `name` around the body; the yielded dict collects counts."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        sid = next(self._ids)
        record = Span(sid, name, 0.0, 0.0, parent, threading.get_ident())
        stack.append(sid)
        record.start = time.perf_counter()
        try:
            yield record.counts
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, name: str, fn, count=None):
        """Wrapper of `fn` recording one span per call.

        `count(args, kwargs, result, exc)` returns the work counts of the
        call; `exc` is the exception the call raised, or None.
        """

        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if count is not None:
                        counts.update(count(args, kwargs, None, exc))
                    raise
                if count is not None:
                    counts.update(count(args, kwargs, result, None))
                return result

        return wrapper


# --- self time -------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it its children cover.

    Children on worker threads overlap each other; only their union is
    taken off, so the result never goes below zero.
    """
    return span.duration - covered([(c.start, c.end) for c in children], span.start, span.end)


# --- instrumentation of the qubitkick layers --------------------------------

def _count_sample_zetas(args, kwargs, result, exc):
    return {"draws": len(args[2] if len(args) > 2 else kwargs["indices"])}


def _count_closed_form(args, kwargs, result, exc):
    zetas, tau = args[2], args[4]
    points = int(zetas.shape[0]) * int(tau.size)
    return {"points": points, "out_bytes": 16 * points}  # complex128 result, n x N


def _count_rk4(args, kwargs, result, exc):
    zetas, tau = args[2], args[4]
    return {"steps": int(zetas.shape[0]) * (int(tau.size) - 1)}


def _count_welch(args, kwargs, result, exc):
    x = args[0] if args else kwargs["x"]
    return {"rows": 1 if x.ndim <= 1 else int(x.shape[0])}


def _count_evolve(args, kwargs, result, exc):
    if exc is not None:
        return {"truncation_retries": int(type(exc).__name__ == "TruncationError")}
    H = args[0] if args else kwargs["H"]
    dim = int(H.shape[0])
    times = int(result.tau.size)
    # four quadratic forms <psi|A|psi> per output time, dim^2 MACs each
    return {"hilbert_dim": dim, "expect_macs": 4 * times * dim * dim}


def _count_propagator(args, kwargs, result, exc):
    return {"substeps": int(args[4] if len(args) > 4 else kwargs["substeps"])}


def _count_text(args, kwargs, result, exc):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"out_bytes": len(text.encode("utf-8"))}


class _WelchModule:
    """Stand-in for `dynamics._signal` whose `welch` is traced."""

    def __init__(self, module, welch):
        self._module = module
        self.welch = welch

    def __getattr__(self, name):
        return getattr(self._module, name)


# (module, attribute, span name, counter)
PROBES = (
    ("dynamics", "run_ensemble", "dynamics.run_ensemble", None),
    ("dynamics", "sample_zetas", "noise.sample_zetas", _count_sample_zetas),
    ("dynamics", "_closed_form_batch", "dynamics.closed_form", _count_closed_form),
    ("dynamics", "_rk4_batch", "dynamics.rk4", _count_rk4),
    ("reconstruct", "reconstruct_from_stats", "reconstruct.reconstruct_from_stats", None),
    ("reconstruct", "fit_mean", "reconstruct.fit_mean", None),
    ("reconstruct", "estimate_nonstationary", "reconstruct.estimate_nonstationary", None),
    ("quantum", "compare_classical_quantum", "quantum.compare_classical_quantum", None),
    ("quantum", "build_hamiltonian", "quantum.build_hamiltonian", None),
    ("quantum", "evolve_expectations", "quantum.evolve_expectations", _count_evolve),
    ("influence", "qubit_propagator_exact", "influence.qubit_propagator_exact", _count_propagator),
    ("influence", "path_functionals", "influence.path_functionals", None),
    ("forces", "table_comparison", "forces.table_comparison", None),
    ("core", "load_config", "core.load_config", None),
    ("cli", "_csv", "cli.csv", None),
    ("cli", "_envelope", "cli.envelope", None),
    ("cli", "_write_atomic", "cli.write", _count_text),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the qubitkick layers through `tracer` for the body's duration."""
    saved = []
    try:
        for mod_name, attr, span_name, count in PROBES:
            module = importlib.import_module(f"qubitkick.{mod_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, count))
        dyn = importlib.import_module("qubitkick.dynamics")
        signal = dyn._signal
        saved.append((dyn, "_signal", signal))
        dyn._signal = _WelchModule(signal, tracer.wrap("dynamics.welch", signal.welch, _count_welch))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- per-layer metrics -------------------------------------------------------

# name -> (unit, better); the order is the order metrics are printed in
LAYER_METRICS = {
    "noise.sample_zetas.calls": ("count", "lower"),
    "noise.sample_zetas.draws": ("count", "lower"),
    "noise.sample_zetas.busy_s": ("s", "lower"),
    "noise.draws_per_s": ("1/s", "higher"),
    "dynamics.closed_form.calls": ("count", "lower"),
    "dynamics.closed_form.points": ("count", "lower"),
    "dynamics.closed_form.busy_s": ("s", "lower"),
    "dynamics.closed_form.out_bytes": ("bytes", "lower"),
    "dynamics.run_ensemble.busy_s": ("s", "lower"),
    "dynamics.run_ensemble.self_s": ("s", "lower"),
    "dynamics.run_ensemble.parallel_ratio": ("ratio", "higher"),
    "dynamics.welch.rows": ("count", "lower"),
    "dynamics.welch.busy_s": ("s", "lower"),
    "dynamics.rk4.steps": ("count", "lower"),
    "dynamics.rk4.busy_s": ("s", "lower"),
    "dynamics.import_s": ("s", "lower"),
    "reconstruct.reconstruct_from_stats.busy_s": ("s", "lower"),
    "reconstruct.fit_mean.calls": ("count", "lower"),
    "reconstruct.fit_mean.busy_s": ("s", "lower"),
    "reconstruct.estimate_nonstationary.busy_s": ("s", "lower"),
    "quantum.compare_classical_quantum.busy_s": ("s", "lower"),
    "quantum.evolve_expectations.calls": ("count", "lower"),
    "quantum.evolve_expectations.busy_s": ("s", "lower"),
    "quantum.build_hamiltonian.busy_s": ("s", "lower"),
    "quantum.hilbert_dim": ("count", "lower"),
    "quantum.expect_macs": ("count", "lower"),
    "quantum.truncation_retries": ("count", "lower"),
    "influence.qubit_propagator_exact.calls": ("count", "lower"),
    "influence.qubit_propagator_exact.substeps": ("count", "lower"),
    "influence.qubit_propagator_exact.busy_s": ("s", "lower"),
    "influence.path_functionals.busy_s": ("s", "lower"),
    "cli.format.busy_s": ("s", "lower"),
    "cli.write.busy_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "core.load_config.busy_s": ("s", "lower"),
    "forces.table_comparison.busy_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly for a given commit and seed.
EXACT_COUNTS = tuple(
    name for name in LAYER_METRICS
    if name.rsplit(".", 1)[-1] in ("calls", "draws", "points", "out_bytes", "steps", "rows",
                                   "substeps", "expect_macs", "hilbert_dim", "truncation_retries")
)


# computed from array and text sizes, not measured traffic
COMPUTED = ("dynamics.closed_form.out_bytes", "quantum.expect_macs", "cli.out_bytes")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the two run-level ones)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    kids = children_of(spans)
    ensembles = by_name.get("dynamics.run_ensemble", ())
    ens_busy = busy("dynamics.run_ensemble")
    child_busy = sum(c.duration for e in ensembles for c in kids.get(e.sid, ()))
    draws = total("noise.sample_zetas", "draws")
    sampler_busy = busy("noise.sample_zetas")
    evolve = by_name.get("quantum.evolve_expectations", ())

    return {
        "noise.sample_zetas.calls": calls("noise.sample_zetas"),
        "noise.sample_zetas.draws": draws,
        "noise.sample_zetas.busy_s": sampler_busy,
        "noise.draws_per_s": draws / sampler_busy if sampler_busy > 0 else 0.0,
        "dynamics.closed_form.calls": calls("dynamics.closed_form"),
        "dynamics.closed_form.points": total("dynamics.closed_form", "points"),
        "dynamics.closed_form.busy_s": busy("dynamics.closed_form"),
        "dynamics.closed_form.out_bytes": total("dynamics.closed_form", "out_bytes"),
        "dynamics.run_ensemble.busy_s": ens_busy,
        "dynamics.run_ensemble.self_s": sum(self_time(e, kids.get(e.sid, ())) for e in ensembles),
        "dynamics.run_ensemble.parallel_ratio": child_busy / ens_busy if ens_busy > 0 else 0.0,
        "dynamics.welch.rows": total("dynamics.welch", "rows"),
        "dynamics.welch.busy_s": busy("dynamics.welch"),
        "dynamics.rk4.steps": total("dynamics.rk4", "steps"),
        "dynamics.rk4.busy_s": busy("dynamics.rk4"),
        "reconstruct.reconstruct_from_stats.busy_s": busy("reconstruct.reconstruct_from_stats"),
        "reconstruct.fit_mean.calls": calls("reconstruct.fit_mean"),
        "reconstruct.fit_mean.busy_s": busy("reconstruct.fit_mean"),
        "reconstruct.estimate_nonstationary.busy_s": busy("reconstruct.estimate_nonstationary"),
        "quantum.compare_classical_quantum.busy_s": busy("quantum.compare_classical_quantum"),
        "quantum.evolve_expectations.calls": len(evolve),
        "quantum.evolve_expectations.busy_s": busy("quantum.evolve_expectations"),
        "quantum.build_hamiltonian.busy_s": busy("quantum.build_hamiltonian"),
        "quantum.hilbert_dim": max((s.counts.get("hilbert_dim", 0) for s in evolve), default=0),
        "quantum.expect_macs": total("quantum.evolve_expectations", "expect_macs"),
        "quantum.truncation_retries": total("quantum.evolve_expectations", "truncation_retries"),
        "influence.qubit_propagator_exact.calls": calls("influence.qubit_propagator_exact"),
        "influence.qubit_propagator_exact.substeps": total("influence.qubit_propagator_exact", "substeps"),
        "influence.qubit_propagator_exact.busy_s": busy("influence.qubit_propagator_exact"),
        "influence.path_functionals.busy_s": busy("influence.path_functionals"),
        "cli.format.busy_s": busy("cli.csv") + busy("cli.envelope"),
        "cli.write.busy_s": busy("cli.write"),
        "cli.out_bytes": total("cli.write", "out_bytes"),
        "core.load_config.busy_s": busy("core.load_config"),
        "forces.table_comparison.busy_s": busy("forces.table_comparison"),
    }
