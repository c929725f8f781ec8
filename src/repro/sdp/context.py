"""Explicit solver state: the :class:`SolveContext` context object.

A :class:`SolveContext` owns the cross-cutting state of conic solving: the
solve-result cache and the solve/compile counters.  Independent
verification pipelines — different caches, relaxations — each hold their
own context and can run *concurrently in one process* without clobbering
each other's counters or sharing cache entries.

The module-level functions of :mod:`repro.sdp.solver`
(:func:`~repro.sdp.solver.solve_conic_problem`,
:func:`~repro.sdp.solver.solve_conic_problems`) take an explicit
``context=`` and fall back to the process-default context returned by
:func:`default_context` without one.

:meth:`SolveContext.solve` and :meth:`SolveContext.solve_many` take a
keyword-only ``solver=``: ``"admm"`` (the default, every ``repro verify``
stage) or ``"ipm"`` (the interior-point method of :mod:`repro.sdp.ipm`,
which the sweep probes use).  The two solvers never share a cache entry:
interior-point keys begin ``ipm|``, ADMM keys ``admm|`` as before.

All counter updates are guarded by a per-context lock: concurrent solves
from a thread pool never lose increments.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from .problem import ConicProblem
from .result import SolverResult

#: Base solve-counter keys always present in a counter snapshot.
BASE_SOLVE_COUNTERS = ("solved", "cache_hit")
#: Base compile-counter keys always present in a compile snapshot.
BASE_COMPILE_COUNTERS = ("full", "memoised")

# Process-wide compile aggregate.  ``repro.sos.compile_counters()`` is
# *process-wide* accounting, and callers use it to prove that a warm-cache
# replay genuinely recompiled its programs — work that happens inside
# per-job contexts.  Every context therefore mirrors its compile events into
# this aggregate (telemetry only; per-context counters remain exact and
# isolated).
_AGGREGATE_COMPILE_LOCK = threading.Lock()
_AGGREGATE_COMPILE_COUNTERS: Dict[str, int] = {k: 0 for k in BASE_COMPILE_COUNTERS}


def aggregate_compile_counters() -> Dict[str, int]:
    """Process-wide compile counters, summed across every context."""
    with _AGGREGATE_COMPILE_LOCK:
        return dict(_AGGREGATE_COMPILE_COUNTERS)


class SolveContext:
    """Owns everything ambient about conic solving.

    Parameters
    ----------
    cache:
        Optional solve-result cache — any object with ``get(key) ->
        Optional[SolverResult]`` and ``put(key, result)``, e.g. a
        :class:`repro.engine.cache.CertificateCache`.

    Caching policy: EVERY terminal result is cached, including failure
    statuses — in this pipeline a rejected feasibility probe is a meaningful
    outcome, and replaying it keeps a warm-cache run a bit-identical,
    zero-solve replay of the cold run.  The key holds the solver and its
    settings and intentionally excludes warm starts (they affect the path,
    not the validity, of a result).
    """

    def __init__(self, cache: Optional[object] = None, name: str = "context"):
        self.name = name
        self.cache = cache
        self._lock = threading.Lock()
        self._solve_counters: Dict[str, int] = {k: 0 for k in BASE_SOLVE_COUNTERS}
        self._compile_counters: Dict[str, int] = {k: 0 for k in BASE_COMPILE_COUNTERS}

    # ------------------------------------------------------------------
    # Counters (thread-safe)
    # ------------------------------------------------------------------
    def record_solve_event(self, event: str, layout_kind: Optional[str] = None,
                           amount: int = 1) -> None:
        """Count one solve event (``"solved"`` / ``"cache_hit"``).

        ``layout_kind`` additionally bumps the cone-layout-keyed counter
        (``solved:psd``, ``cache_hit:chordal``, …) so relaxation-aware tests can
        assert *which* Gram cone actually solved.
        """
        with self._lock:
            self._solve_counters[event] = self._solve_counters.get(event, 0) + amount
            if layout_kind is not None:
                keyed = f"{event}:{layout_kind}"
                self._solve_counters[keyed] = self._solve_counters.get(keyed, 0) + amount

    def record_compile_event(self, event: str, amount: int = 1) -> None:
        """Count one SOS compile event (``"full"`` / ``"memoised"``)."""
        with self._lock:
            self._compile_counters[event] = self._compile_counters.get(event, 0) + amount
        with _AGGREGATE_COMPILE_LOCK:
            _AGGREGATE_COMPILE_COUNTERS[event] = \
                _AGGREGATE_COMPILE_COUNTERS.get(event, 0) + amount

    def solve_counters(self) -> Dict[str, int]:
        """Snapshot of this context's conic solve counters.

        ``solved`` counts actual conic solves, ``cache_hit`` counts solves
        served from the cache.  Each event is additionally keyed by the
        problem's cone layout kind (``solved:psd``, ``cache_hit:chordal``, …; see
        :attr:`repro.sdp.problem.ConicProblem.layout_kind`).
        """
        with self._lock:
            return dict(self._solve_counters)

    def compile_counters(self) -> Dict[str, int]:
        """Snapshot of this context's SOS compile counters."""
        with self._lock:
            return dict(self._compile_counters)

    def reset_compile_counters(self) -> None:
        """Zero the compile counters."""
        with self._lock:
            self._compile_counters = {k: 0 for k in BASE_COMPILE_COUNTERS}

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, problem: ConicProblem,
              warm_start: Optional[object] = None,
              *, solver: str = "admm",
              **settings) -> SolverResult:
        """Solve one conic problem under this context's cache.

        ``solver`` is ``"admm"`` or ``"ipm"`` (see :mod:`repro.sdp.solver`).
        ``settings`` are :class:`~repro.sdp.admm.ADMMSettings` fields; the
        interior-point method takes none and raises ``TypeError`` on any.
        Results are served from and written to this context's cache (when
        installed) and counted in this context's counters only.
        """
        from .solver import check_solver_settings, solve_cache_key, solve_single_uncached

        check_solver_settings(settings, solver)
        cache = self.cache
        key: Optional[str] = None
        if cache is not None:
            key = solve_cache_key(problem, settings, solver)
            cached = cache.get(key)
            if cached is not None:
                self.record_solve_event("cache_hit", problem.layout_kind)
                return cached
        result = solve_single_uncached(problem, warm_start, settings, solver=solver)
        self.record_solve_event("solved", problem.layout_kind)
        if cache is not None and key is not None:
            cache.put(key, result)
        return result

    def solve_many(self, problems: Sequence[ConicProblem],
                   warm_starts: Optional[Sequence[Optional[object]]] = None,
                   *, solver: str = "admm",
                   **settings) -> List[SolverResult]:
        """Solve a batch of structurally identical conic problems.

        ``solver`` and ``settings`` are as for :meth:`solve`.  The problems
        the cache does not serve go through one
        :func:`~repro.sdp.solver.solve_batch_uncached` call.  Per-problem
        results match solving each problem alone.
        """
        from .solver import check_solver_settings, solve_batch_uncached, solve_cache_key

        check_solver_settings(settings, solver)
        problems = list(problems)
        if warm_starts is None:
            warm_starts = [None] * len(problems)
        warm_starts = list(warm_starts)
        if len(warm_starts) != len(problems):
            raise ValueError("warm_starts must align with problems")

        cache = self.cache
        results: List[Optional[SolverResult]] = [None] * len(problems)
        keys: List[Optional[str]] = [None] * len(problems)
        pending = list(range(len(problems)))
        if cache is not None:
            pending = []
            for i, problem in enumerate(problems):
                keys[i] = solve_cache_key(problem, settings, solver)
                cached = cache.get(keys[i])
                if cached is not None:
                    self.record_solve_event("cache_hit", problem.layout_kind)
                    results[i] = cached
                else:
                    pending.append(i)
        if pending:
            sub_problems = [problems[i] for i in pending]
            sub_starts = [warm_starts[i] for i in pending]
            solved = solve_batch_uncached(sub_problems, sub_starts, settings,
                                          solver=solver)
            for problem in sub_problems:
                self.record_solve_event("solved", problem.layout_kind)
            for i, result in zip(pending, solved):
                results[i] = result
                if cache is not None and keys[i] is not None:
                    cache.put(keys[i], result)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def describe(self) -> str:
        counters = self.solve_counters()
        return (f"SolveContext({self.name!r}: "
                f"cache={'on' if self.cache is not None else 'off'}, "
                f"solved={counters.get('solved', 0)}, "
                f"cache_hit={counters.get('cache_hit', 0)})")

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()


#: The process-default context behind every context-less call.
_DEFAULT_CONTEXT = SolveContext(name="default")


def default_context() -> SolveContext:
    """The process-default :class:`SolveContext`.

    Every context-less call (``solve_conic_problem(...)`` without
    ``context=``, a :class:`~repro.sos.program.SOSProgram` built without one)
    lands here; read its cache as ``default_context().cache`` and its
    counters with ``default_context().solve_counters()``.
    """
    return _DEFAULT_CONTEXT
