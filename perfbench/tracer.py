"""Spans around the public functions of ``obslat``, installed from outside.

The benchmark never edits the package.  In a traced run, :func:`instrument`
replaces each traced function or method by a wrapper that opens a span,
calls the original and closes the span.  The replacement is made in every
``obslat`` module that holds the original object, so calls between modules
are traced as well.

A span's name is the layer metric it feeds, without the ``_s`` suffix.
Self time is a span's duration minus the time its direct child spans cover,
so summing self times never counts nested work twice.  Spans are kept in
memory and written out at the end of the run, except ``energies.eval``
spans (hundreds of thousands in a projected-gradient stall), which are only
counted and timed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from collections import defaultdict

#: Spans whose allocations the memory pass measures, and the layer each
#: counts for.  tracemalloc runs only inside them, so that the rest of the
#: pass (pure-Python PSOR sweeps above all) is not slowed.
MEMORY_LAYER = {"energies.build": "energies", "metric.dijkstra": "metric",
                "metric.axiom_check": "metric", "metric.from_graph_self": "metric",
                "metric.hopf_lax": "metric", "metric.construct_self": "metric"}

#: Spans that are aggregated but not logged one by one.
UNLOGGED = ("energies.eval",)


class Tracer:
    """In-memory span recorder with per-name self-time totals and counters."""

    def __init__(self):
        self._stack = []
        self._paused = 0
        self.op = None
        self.memory = False
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.peak_bytes = defaultdict(int)

    def take(self) -> tuple[dict, dict]:
        """Return and reset the self times and counters gathered so far."""
        out = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return out

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside open no spans (the benchmark's own output checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, name: str) -> None:
        # frame: name, start, time covered by children, log index, memory at
        # start, highest traced memory seen by finished children, whether
        # this span started tracemalloc
        frame = [name, 0.0, 0.0, None, 0, 0, False]
        if self.memory and name in MEMORY_LAYER and not tracemalloc.is_tracing():
            tracemalloc.start()
            frame[6] = True
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][5] = max(self._stack[-1][5], peak)
            tracemalloc.reset_peak()
            frame[4] = frame[5] = cur
        if name not in UNLOGGED:
            frame[3] = len(self.spans)
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append([name, parent, self.op, None, None])
        self._stack.append(frame)
        frame[1] = time.perf_counter()

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index, mem0, carry, owner = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index][3:5] = [start, end]
        if tracemalloc.is_tracing():
            peak = max(carry, tracemalloc.get_traced_memory()[1])
            if name in MEMORY_LAYER:
                layer = MEMORY_LAYER[name]
                self.peak_bytes[layer] = max(self.peak_bytes[layer], peak - mem0)
            if self._stack:
                self._stack[-1][5] = max(self._stack[-1][5], peak)
            tracemalloc.reset_peak()
            if owner:
                tracemalloc.stop()

    def wrap(self, fn, name: str, on_result=None):
        """Wrap ``fn`` in a span; ``on_result(tracer, result, args)`` counts its work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        return wrapper


def _energy_nnz(energy) -> int:
    """Stored nonzeros of the energy's Hessian pattern (pairs both ways plus diagonal)."""
    if hasattr(energy, "a"):
        return int(energy.a.nnz)
    return int(2 * energy.w.size + energy.n)


def _count_solve(tracer, sol, args):
    tracer.add("solvers.iterations", sol.iterations)
    tracer.add("solvers.nnz_sweeps", sol.iterations * _energy_nnz(args[0]))
    tracer.add("solvers.unconverged", 0 if sol.converged else 1)


def _count_energy(tracer, energy):
    tracer.add("energies.build_n", energy.n)
    tracer.add("energies.nnz", _energy_nnz(energy))


def _counter(name):
    def count(tracer, result, args):
        tracer.add(name, 1)
    return count


def _replace_everywhere(original, replacement) -> None:
    """Swap ``original`` for ``replacement`` in every loaded obslat module."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".", 1)[0] != "obslat":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Install spans at the layer boundaries of the imported ``obslat`` package."""
    import obslat.certificates as certificates
    import obslat.cli as cli
    import obslat.energies as energies
    import obslat.instances as instances
    import obslat.metric as metric
    import obslat.solvers as solvers
    import obslat.suite as suite

    def function(module, attr, name, on_result=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(original, name, on_result))

    def method(cls, attr, name, on_result=None):
        setattr(cls, attr, tracer.wrap(vars(cls)[attr], name, on_result))

    for attr in ("solve_psor", "solve_projected_gradient"):
        function(solvers, attr, "solvers.solve", _count_solve)
    # The oracle's "iterations" are enumerated activity patterns, not sweeps.
    function(solvers, "brute_force_active_set", "solvers.oracle")

    # Every quadratic energy passes through __init__ (graph_dirichlet too);
    # fractional_kernel_1d returns its KernelEnergy and is counted there.
    method(energies.QuadraticEnergy, "__init__", "energies.build",
           lambda tracer, result, args: _count_energy(tracer, args[0]))
    function(energies, "graph_dirichlet", "energies.build")
    function(energies, "fractional_kernel_1d", "energies.build",
             lambda tracer, result, args: _count_energy(tracer, result))
    for cls in (energies.QuadraticEnergy, energies.KernelEnergy):
        method(cls, "value", "energies.eval", _counter("energies.value_calls"))
        method(cls, "gradient", "energies.eval", _counter("energies.gradient_calls"))

    function(metric, "dijkstra", "metric.dijkstra")
    method(metric.FiniteMetricSpace, "__post_init__", "metric.axiom_check")
    from_graph = vars(metric.GraphSpace)["from_graph"].__func__
    metric.GraphSpace.from_graph = classmethod(
        tracer.wrap(from_graph, "metric.from_graph_self"))
    function(metric, "hopf_lax", "metric.hopf_lax", _counter("metric.hopf_lax_calls"))
    for attr in ("build_cutoff", "kantorovich_regularize", "cutoff_obstacles",
                 "c_transform", "is_c_concave", "coincidence_cc_report"):
        function(metric, attr, "metric.construct_self")

    function(certificates, "ls_certificate", "certificates.certify")
    function(certificates, "certificate_report", "certificates.report")

    for attr in ("main", "cmd_solve", "cmd_cutoff", "cmd_kantorovich", "cmd_suite"):
        function(cli, attr, "cli.self")

    for check_name, fn in list(suite.CHECKS.items()):
        suite.CHECKS[check_name] = tracer.wrap(fn, f"suite.check.{check_name}")
    function(suite, "run_suite", "suite.self")

    for attr, value in list(vars(instances).items()):
        if callable(value) and getattr(value, "__module__", None) == instances.__name__:
            function(instances, attr, "instances.gen")
