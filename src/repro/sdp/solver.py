"""Backend registry and the :func:`solve_conic_problem` entry points.

The SOS layer never talks to a specific solver class; it requests a backend
by name (``"admm"`` by default) so that experiments can swap or ablate the
numerical engine without touching the verification code.

Cross-cutting solver state — the result cache, the solve counters, backend
defaults — lives in a :class:`~repro.sdp.context.SolveContext`.  The
functions here accept an explicit ``context=``; when omitted they fall back
to the process-default context.  Code that needs its own cache or counters
holds its own context (usually through :class:`repro.api.VerificationSession`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..utils import get_logger
from .admm import ADMMConicSolver, ADMMSettings, WarmStart
from .batch import BatchADMMSolver
from .problem import ConicProblem
from .projection import AlternatingProjectionSolver, ProjectionSettings
from .result import SolverResult

LOGGER = get_logger("sdp.solver")

SolverFactory = Callable[[], object]


def _settings_for(settings_cls, settings: Dict[str, object]) -> Dict[str, object]:
    """Drop keyword settings the backend's settings dataclass does not know.

    Scenario options carry one ``solver_settings`` dict tuned for the default
    backend; swapping backends (``--backend projection``) must not crash on
    tuning knobs the other backend has no counterpart for.  Only keys that
    belong to *some* built-in backend are dropped (and logged); a key no
    backend recognises is a typo and still raises ``TypeError``, preserving
    the pre-swap validation.
    """
    known = {field.name for field in dataclasses.fields(settings_cls)}
    kept = {key: value for key, value in settings.items() if key in known}
    dropped = sorted(set(settings) - known)
    if dropped:
        recognised = set()
        for cls in (ADMMSettings, ProjectionSettings):
            recognised |= {field.name for field in dataclasses.fields(cls)}
        bogus = [key for key in dropped if key not in recognised]
        if bogus:
            raise TypeError(
                f"unknown solver setting(s) {bogus} (not accepted by any "
                f"built-in backend; {settings_cls.__name__} accepts {sorted(known)})")
        LOGGER.info("backend %s ignores solver settings %s",
                    settings_cls.__name__, dropped)
    return kept


def effective_solver_settings(backend: Union[str, object, None],
                              settings: Dict[str, object]) -> Dict[str, object]:
    """The settings a named built-in backend will actually consume.

    Used to normalise cache keys: two solves whose settings differ only in
    knobs the backend ignores are the same solve and must share a cache
    entry.  Unknown backend names and backend objects pass through unchanged
    (their factories decide what they accept).
    """
    if backend is None or backend in ("admm", "batch_admm"):
        return _settings_for(ADMMSettings, settings)
    if backend == "projection":
        return _settings_for(ProjectionSettings, settings)
    return dict(settings)


def solve_counters(context: Optional[object] = None) -> Dict[str, int]:
    """Snapshot of a context's conic solve counters (default context if none).

    ``solved`` counts actual conic solves performed by a backend,
    ``cache_hit`` counts solves served from the context's cache.  Each event
    is additionally keyed by the problem's cone layout kind (``solved:psd``,
    ``cache_hit:dd``, …; see
    :attr:`repro.sdp.problem.ConicProblem.layout_kind`).
    """
    from .context import default_context

    return (context or default_context()).solve_counters()


def get_solve_cache(context: Optional[object] = None) -> Optional[object]:
    """The cache installed on ``context`` (default context if none)."""
    from .context import default_context

    return (context or default_context()).cache


def canonical_solver_options(backend: Union[str, object, None],
                             settings: Dict[str, object]) -> str:
    """Deterministic text form of (backend, settings) for cache keys.

    Backend objects (rather than names) are identified by their class name and
    settings dataclass repr; keyword settings are sorted by key.  Two solves
    configured identically therefore serialise identically across processes.
    A backend object that exposes no ``settings`` attribute falls back to its
    full ``repr`` — for default reprs this includes the object id, which
    biases the cache towards misses rather than ever serving a result solved
    under unknown, possibly different, configuration.
    """
    if backend is None:
        backend_token = DEFAULT_BACKEND
    elif isinstance(backend, str):
        backend_token = backend
    else:
        inner = getattr(backend, "settings", None)
        if inner is not None:
            backend_token = f"{type(backend).__name__}({inner!r})"
        else:
            backend_token = repr(backend)
    items = ", ".join(f"{key}={settings[key]!r}" for key in sorted(settings))
    return f"{backend_token}|{items}"


def solve_cache_key(problem: ConicProblem,
                    backend: Union[str, object, None],
                    settings: Dict[str, object]) -> str:
    """Content-addressed cache key: problem data hash + solver options."""
    options = canonical_solver_options(backend, settings)
    digest = hashlib.sha256()
    digest.update(problem.fingerprint().encode("ascii"))
    digest.update(b"|")
    digest.update(options.encode("utf-8"))
    return digest.hexdigest()

_BACKENDS: Dict[str, SolverFactory] = {
    "admm": ADMMConicSolver,
    "batch_admm": BatchADMMSolver,
    "projection": AlternatingProjectionSolver,
}

DEFAULT_BACKEND = "admm"


def available_backends() -> tuple:
    return tuple(sorted(_BACKENDS))


def register_backend(name: str, factory: SolverFactory, overwrite: bool = False) -> None:
    """Register a custom solver backend (must expose ``solve(problem) -> SolverResult``)."""
    if name in _BACKENDS and not overwrite:
        raise ValueError(f"backend {name!r} already registered")
    _BACKENDS[name] = factory


def make_solver(backend: Union[str, object, None] = None, **settings):
    """Instantiate a solver backend.

    ``backend`` may be a name, an already-constructed solver object (returned
    unchanged) or ``None`` for the default.  Keyword settings are forwarded to
    the backend's settings dataclass.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if not isinstance(backend, str):
        return backend
    if backend not in _BACKENDS:
        raise KeyError(f"unknown solver backend {backend!r}; available: {available_backends()}")
    if backend in ("admm", "batch_admm"):
        settings = _settings_for(ADMMSettings, settings)
        solver_cls = ADMMConicSolver if backend == "admm" else BatchADMMSolver
        return solver_cls(ADMMSettings(**settings)) if settings else solver_cls()
    if backend == "projection":
        settings = _settings_for(ProjectionSettings, settings)
        return AlternatingProjectionSolver(ProjectionSettings(**settings)) \
            if settings else AlternatingProjectionSolver()
    factory = _BACKENDS[backend]
    return factory(**settings) if settings else factory()


def solve_conic_problem(problem: ConicProblem,
                        backend: Union[str, object, None] = None,
                        warm_start: Optional[WarmStart] = None,
                        context: Optional[object] = None,
                        **settings) -> SolverResult:
    """Solve a conic problem with the requested backend.

    ``context`` is the :class:`~repro.sdp.context.SolveContext` whose cache,
    counters and defaults govern this solve; ``None`` uses the process
    default.  ``warm_start`` is forwarded to backends that support it (the
    built-in ADMM and alternating-projection solvers); other backends are
    called without it.  Pass the ``warm_start_data`` dict from a previous
    result on a structurally identical problem to accelerate sequential
    solves.
    """
    from .context import default_context

    return (context or default_context()).solve(
        problem, backend=backend, warm_start=warm_start, **settings)


def solve_conic_problems(problems: Sequence[ConicProblem],
                         backend: Union[str, object, None] = None,
                         warm_starts: Optional[Sequence[Optional[WarmStart]]] = None,
                         context: Optional[object] = None,
                         **settings) -> List[SolverResult]:
    """Solve a batch of structurally identical conic problems.

    The ADMM backend (the default) routes the whole batch through
    :class:`~repro.sdp.batch.BatchADMMSolver` — one iteration loop, stacked
    cone projections, multi-RHS KKT solves and per-problem convergence
    masking.  Other backends are solved sequentially with per-problem warm
    starts.  Per-problem statuses match solving each problem alone.
    ``context`` selects the governing :class:`~repro.sdp.context.SolveContext`
    (the process default when ``None``).
    """
    from .context import default_context

    return (context or default_context()).solve_many(
        problems, backend=backend, warm_starts=warm_starts, **settings)


def solve_batch_uncached(problems: List[ConicProblem],
                         backend: Union[str, object, None],
                         warm_starts: List[Optional[WarmStart]],
                         settings: Dict[str, object]) -> List[SolverResult]:
    """Raw batch solve — no cache, no counters (used by :class:`SolveContext`)."""
    if backend is None or backend in ("admm", "batch_admm"):
        settings = _settings_for(ADMMSettings, settings)
        solver = BatchADMMSolver(ADMMSettings(**settings)) if settings else BatchADMMSolver()
        return solver.solve_batch(problems, warm_starts)
    if isinstance(backend, BatchADMMSolver):
        return backend.solve_batch(problems, warm_starts)
    if isinstance(backend, ADMMConicSolver):
        return BatchADMMSolver(backend.settings).solve_batch(problems, warm_starts)
    return [solve_single_uncached(problem, backend, ws, settings)
            for problem, ws in zip(problems, warm_starts)]


def solve_single_uncached(problem: ConicProblem,
                          backend: Union[str, object, None],
                          warm_start: Optional[WarmStart],
                          settings: Dict[str, object]) -> SolverResult:
    """Raw single solve — no cache, no counters (used by :class:`SolveContext`)."""
    solver = make_solver(backend, **settings)
    if warm_start is not None and _accepts_warm_start(solver):
        return solver.solve(problem, warm_start=warm_start)
    return solver.solve(problem)


def _accepts_warm_start(solver: object) -> bool:
    try:
        return "warm_start" in inspect.signature(solver.solve).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
