"""Per-layer self-time tracing, installed from outside the library.

:class:`Tracer` replaces the public entry points of each layer of
``repro`` with timing wrappers.  Every wrapper pushes a span on one stack;
when it returns, its duration minus the time its child spans covered is its
*self time*.  Self times of all spans plus the time no span covered
(``other_s``) add up to the traced wall time exactly.

Each name is patched where its caller looks it up: a module that did
``from .cones import project_onto_cone`` holds its own reference, so the
patch goes on ``repro.sdp.admm.project_onto_cone``, not on
``repro.sdp.cones``.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional

#: Spans whose self time is accounted to each per-layer metric.  Every span
#: the tracer installs appears here exactly once, so the metrics below plus
#: ``other_s`` account for the traced wall time.
SELF_TIME_METRICS = {
    "sdp.context_s": ("sdp.context",),
    "sdp.admm_loop_s": ("sdp.admm_loop",),
    "sdp.presolve_s": ("sdp.presolve",),
    "sdp.projection_s": ("sdp.projection",),
    "sdp.eigh_s": ("sdp.eigh",),
    "sdp.kkt_factor_s": ("sdp.kkt_factor",),
    "sdp.kkt_solve_s": ("sdp.kkt_solve",),
    "sos.compile_s": ("sos.compile",),
    "sos.bind_s": ("sos.bind",),
    "engine.cache_get_s": ("engine.cache_get",),
    "engine.cache_put_s": ("engine.cache_put",),
    "engine.job_s": ("engine.job",),
    "scenarios.build_s": ("scenarios.build",),
    "analysis.falsification_s": ("analysis.falsification",),
    "sweep.validate_s": ("sweep.validate",),
    "core.self_s": ("core.lyapunov", "core.levelset", "core.advection",
                    "core.property_two"),
}


class Tracer:
    """A stack of open spans with per-name self time, inclusive time and calls."""

    def __init__(self) -> None:
        self._stack = []              # child-time accumulator of each open span
        self._open = Counter()        # open spans per name (recursion guard)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._full_compiles = 0
        self._undo = []

    def reset(self) -> None:
        from repro.sdp.context import aggregate_compile_counters

        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._full_compiles = aggregate_compile_counters()["full"]

    def is_open(self, span: str) -> bool:
        return self._open[span] > 0

    def wrap(self, span: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` timed as ``span``; ``on_result(result)`` sees each return value."""
        stack, open_spans = self._stack, self._open
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            open_spans[span] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_spans[span] -= 1
                self_s[span] += elapsed - children[0]
                if not open_spans[span]:
                    incl_s[span] += elapsed
                calls[span] += 1
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, span: str,
              on_result: Optional[Callable] = None,
              wrapper: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (module or class attribute) by a traced one."""
        original = vars(owner)[attr]
        traced = (wrapper(original) if wrapper is not None
                  else self.wrap(span, original, on_result))
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every layer entry point of ``repro``."""
        import repro.analysis
        import repro.core.inevitability
        import repro.engine.engine
        import repro.scenarios
        import repro.sdp.admm
        import repro.sdp.batch
        import repro.sdp.solver
        import repro.sweep.planner
        import repro.sweep.probe
        from repro.core import LevelSetMaximizer, MultipleLyapunovSynthesizer
        from repro.engine.cache import CertificateCache
        from repro.sdp.backend import NumpyBackend
        from repro.sdp.context import SolveContext
        from repro.sdp.result import SolverStatus
        from repro.sos.parametric import (MultiParametricSOSProgram,
                                          ParametricSOSProgram)
        from repro.sos.program import SOSProgram

        counts = self.counts

        def count_solve(result) -> None:
            counts["sdp.solves"] += 1
            counts["sdp.iterations"] += int(result.iterations or 0)
            if result.status is SolverStatus.MAX_ITERATIONS:
                counts["sdp.max_iter_solves"] += 1

        def count_single(result) -> None:
            # A non-ADMM batch falls back to single solves; count them once
            # (the single solve's own span has closed when this runs).
            if not self.is_open("sdp.admm_loop"):
                count_solve(result)

        def count_batch(results) -> None:
            for result in results:
                count_solve(result)

        def count_lookup(result) -> None:
            counts["engine.cache_hits" if result is not None
                   else "engine.cache_misses"] += 1

        solve_kkt = functools.partial(self.wrap, "sdp.kkt_solve")

        def traced_factor(original):
            def kkt_factor(backend, kkt):
                return _TracedFactor(original(backend, kkt), solve_kkt)
            return self.wrap("sdp.kkt_factor", kkt_factor)

        patches = [
            (SolveContext, "solve", "sdp.context", None),
            (SolveContext, "solve_many", "sdp.context", None),
            (repro.sdp.solver, "solve_single_uncached", "sdp.admm_loop", count_single),
            (repro.sdp.solver, "solve_batch_uncached", "sdp.admm_loop", count_batch),
            (repro.sdp.admm, "presolve", "sdp.presolve", None),
            (repro.sdp.batch, "presolve", "sdp.presolve", None),
            (repro.sdp.admm, "project_onto_cone", "sdp.projection", None),
            (repro.sdp.batch, "project_onto_cone_many", "sdp.projection", None),
            (NumpyBackend, "eigh", "sdp.eigh", None),
            (SOSProgram, "compile", "sos.compile", None),
            (ParametricSOSProgram, "compile", "sos.compile", None),
            (MultiParametricSOSProgram, "compile", "sos.compile", None),
            (ParametricSOSProgram, "bind", "sos.bind", None),
            (MultiParametricSOSProgram, "bind", "sos.bind", None),
            (CertificateCache, "get", "engine.cache_get", count_lookup),
            (CertificateCache, "put", "engine.cache_put", None),
            (repro.engine.engine, "_execute_job", "engine.job", None),
            (repro.sweep.planner, "_execute_job", "engine.job", None),
            (repro.scenarios, "build_problem", "scenarios.build", None),
            (repro.sweep.probe, "build_problem", "scenarios.build", None),
            (repro.analysis, "run_falsification", "analysis.falsification", None),
            (MultipleLyapunovSynthesizer, "synthesize", "core.lyapunov", None),
            (MultipleLyapunovSynthesizer, "validate_certificate_decrease",
             "sweep.validate", None),
            (LevelSetMaximizer, "maximize", "core.levelset", None),
            (repro.core.inevitability, "run_bounded_advection", "core.advection", None),
            (repro.engine.engine, "run_mode_property_two", "core.property_two", None),
        ]
        for owner, attr, span, on_result in patches:
            self.patch(owner, attr, span, on_result)
        self.patch(NumpyBackend, "kkt_factor", "sdp.kkt_factor",
                   wrapper=traced_factor)

    # ------------------------------------------------------------------
    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        from repro.sdp.context import aggregate_compile_counters

        self_s, incl_s, calls, counts = self.self_s, self.incl_s, self.calls, self.counts
        metrics: Dict[str, float] = {}
        for name, spans in SELF_TIME_METRICS.items():
            metrics[name] = sum(self_s.get(span, 0.0) for span in spans)
        metrics["other_s"] = wall_s - sum(metrics.values())

        metrics["sdp.eigh_calls"] = calls["sdp.eigh"]
        metrics["sdp.kkt_factors"] = calls["sdp.kkt_factor"]
        solves = counts["sdp.solves"]
        metrics["sdp.solves"] = solves
        metrics["sdp.iterations"] = counts["sdp.iterations"]
        metrics["sdp.max_iter_frac"] = (counts["sdp.max_iter_solves"] / solves
                                        if solves else 0.0)
        metrics["sos.binds"] = calls["sos.bind"]
        metrics["sos.compiles"] = (aggregate_compile_counters()["full"]
                                   - self._full_compiles)

        # Table 2 rows: inclusive time of each core step.
        metrics["core.lyapunov_s"] = incl_s.get("core.lyapunov", 0.0)
        metrics["core.levelset_s"] = incl_s.get("core.levelset", 0.0)
        metrics["core.advection_s"] = incl_s.get("core.advection", 0.0)
        metrics["core.inclusion_s"] = max(
            0.0, incl_s.get("core.property_two", 0.0) - metrics["core.advection_s"])

        lookups = counts["engine.cache_hits"] + counts["engine.cache_misses"]
        metrics["engine.cache_hit_rate"] = (counts["engine.cache_hits"] / lookups
                                            if lookups else 0.0)
        jobs = incl_s.get("engine.job", 0.0)
        metrics["engine.overhead_s"] = wall_s - jobs if calls["engine.job"] else 0.0
        return metrics

    def wrapped_calls(self) -> int:
        return sum(self.calls.values())


class _TracedFactor:
    """A KKT factorisation whose ``solve`` is traced (the factor classes use
    ``__slots__``, so the method cannot be replaced on the instance)."""

    __slots__ = ("solve",)

    def __init__(self, factor, wrap) -> None:
        self.solve = wrap(factor.solve)


def wrapper_cost_s(samples: int = 200_000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""
    tracer = Tracer()

    def plain(x):
        return x

    traced = tracer.wrap("calibration", plain)
    clock = time.perf_counter
    start = clock()
    for i in range(samples):
        plain(i)
    bare = clock() - start
    start = clock()
    for i in range(samples):
        traced(i)
    wrapped = clock() - start
    return max(0.0, (wrapped - bare) / samples)
