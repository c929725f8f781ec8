"""The :func:`solve_conic_problem` entry points of the conic solvers.

Two solvers are selected by the keyword-only ``solver=`` of
:meth:`~repro.sdp.context.SolveContext.solve` and
:meth:`~repro.sdp.context.SolveContext.solve_many`:

* ``"admm"`` (the default), the operator-splitting solver every pipeline
  stage uses.  It has two loops, picked by batch size: a single problem
  goes through :class:`~repro.sdp.admm.ADMMConicSolver`, a batch of two or
  more structurally identical problems through
  :class:`~repro.sdp.batch.BatchADMMSolver`.  Its keyword settings are
  :class:`~repro.sdp.admm.ADMMSettings` fields.
* ``"ipm"``, the batched interior-point method of :mod:`repro.sdp.ipm`,
  which the sweep probes use.  It takes no settings.  It solves to
  relative residuals of 1e-8, or ends ``INFEASIBLE`` with a checked Farkas
  certificate, or ends ``MAX_ITERATIONS``.

Both run through :func:`solve_batch_uncached` and
:func:`solve_single_uncached`, so everything that observes those two
functions sees the solves of both.

Cross-cutting solver state — the result cache and the solve counters —
lives in a :class:`~repro.sdp.context.SolveContext`.  The functions here
accept an explicit ``context=``; when omitted they fall back to the
process-default context.  Code that needs its own cache or counters holds
its own context.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Sequence

from . import ipm
from .admm import ADMMConicSolver, ADMMSettings, WarmStart
from .batch import BatchADMMSolver
from .problem import ConicProblem
from .result import SolverResult

_ADMM_SETTINGS = frozenset(field.name for field in dataclasses.fields(ADMMSettings))
#: The names ``solver=`` accepts.
SOLVERS = ("admm", "ipm")


def check_solver_settings(settings: Dict[str, object], solver: str = "admm") -> None:
    """Raise ``TypeError`` if ``settings`` does not suit ``solver``.

    ADMM accepts the ``ADMMSettings`` fields; the interior-point method
    accepts none.  An unknown ``solver`` raises ``ValueError``.  The check
    runs before the cache lookup, so a typo such as ``max_iters=`` fails
    even when the solve would be served from the cache.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    if solver == "ipm":
        if settings:
            raise TypeError(f"the interior-point solver takes no settings, "
                            f"got {sorted(settings)}")
        return
    bogus = sorted(set(settings) - _ADMM_SETTINGS)
    if bogus:
        raise TypeError(f"unknown solver setting(s) {bogus}; "
                        f"ADMMSettings accepts {sorted(_ADMM_SETTINGS)}")


def canonical_solver_options(settings: Dict[str, object], solver: str = "admm") -> str:
    """Deterministic text form of the solver and its settings for cache keys.

    Keyword settings are sorted by key, so two solves configured
    identically serialise identically across processes.  The ``admm|``
    prefix keeps keys written by earlier versions, which named the solver
    there, valid; interior-point solves read ``ipm|``.
    """
    items = ", ".join(f"{key}={settings[key]!r}" for key in sorted(settings))
    return f"{solver}|{items}"


def solve_cache_key(problem: ConicProblem, settings: Dict[str, object],
                    solver: str = "admm") -> str:
    """Content-addressed cache key: problem data hash + solver settings."""
    options = canonical_solver_options(settings, solver)
    digest = hashlib.sha256()
    digest.update(problem.fingerprint().encode("ascii"))
    digest.update(b"|")
    digest.update(options.encode("utf-8"))
    return digest.hexdigest()


def solve_conic_problem(problem: ConicProblem,
                        warm_start: Optional[WarmStart] = None,
                        context: Optional[object] = None,
                        **settings) -> SolverResult:
    """Solve one conic problem, with ADMM unless ``solver="ipm"`` is passed.

    ``context`` is the :class:`~repro.sdp.context.SolveContext` whose cache
    and counters govern this solve; ``None`` uses the process
    default.  Keyword settings are :class:`~repro.sdp.admm.ADMMSettings`
    fields.  Pass the ``warm_start_data`` dict from a previous result on a
    structurally identical problem as ``warm_start`` to accelerate
    sequential solves.
    """
    from .context import default_context

    return (context or default_context()).solve(
        problem, warm_start=warm_start, **settings)


def solve_conic_problems(problems: Sequence[ConicProblem],
                         warm_starts: Optional[Sequence[Optional[WarmStart]]] = None,
                         context: Optional[object] = None,
                         **settings) -> List[SolverResult]:
    """Solve a batch of structurally identical conic problems.

    Two or more uncached problems go through
    :class:`~repro.sdp.batch.BatchADMMSolver` — one iteration loop, stacked
    cone projections, multi-RHS x-update solves and per-problem convergence
    masking; a single one through :class:`~repro.sdp.admm.ADMMConicSolver`.
    Per-problem statuses match solving each problem alone.  ``context``
    selects the governing :class:`~repro.sdp.context.SolveContext` (the
    process default when ``None``).
    """
    from .context import default_context

    return (context or default_context()).solve_many(
        problems, warm_starts=warm_starts, **settings)


def solve_batch_uncached(problems: List[ConicProblem],
                         warm_starts: List[Optional[WarmStart]],
                         settings: Dict[str, object],
                         solver: str = "admm") -> List[SolverResult]:
    """Raw batch solve — no cache, no counters (used by :class:`SolveContext`).

    A one-problem ADMM batch runs the single-problem loop, which gives the
    same result as the batched loop at a lower cost.  The interior-point
    method ignores warm starts.
    """
    if solver == "ipm":
        return ipm.solve_batch(problems)
    admm = ADMMSettings(**settings)
    if len(problems) == 1:
        return [ADMMConicSolver(admm).solve(problems[0], warm_start=warm_starts[0])]
    return BatchADMMSolver(admm).solve_batch(problems, warm_starts)


def solve_single_uncached(problem: ConicProblem,
                          warm_start: Optional[WarmStart],
                          settings: Dict[str, object],
                          solver: str = "admm") -> SolverResult:
    """Raw single solve — no cache, no counters (used by :class:`SolveContext`)."""
    if solver == "ipm":
        return ipm.solve_batch([problem])[0]
    return ADMMConicSolver(ADMMSettings(**settings)).solve(problem, warm_start=warm_start)
