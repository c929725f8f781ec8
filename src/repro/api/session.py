"""The :class:`VerificationSession` context object and the ``verify`` facade.

A session owns everything that used to be ambient module-global state:

* the default settings of the ADMM conic solver,
* the certificate cache (in-memory object or on-disk directory),
* the solve and compile counters (thread-safe, per-session),
* the default Gram-cone relaxation,
* an RNG seed (the deterministic source behind :meth:`VerificationSession.rng`
  for caller-driven sampling work such as falsification), and
* an optional timing hook observing per-step wall-clock.

Two sessions in one process are fully isolated: they can verify different
(or the same) scenarios concurrently from a thread pool with different
caches, solver settings and relaxations, and neither observes the other's counters
or cache entries.  This is the supported public surface for embedding the
verifier in services; calls made without a session use the
process-default :class:`~repro.sdp.context.SolveContext`.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Optional, Union

import numpy as np

from ..core import InevitabilityOptions, InevitabilityVerifier, VerificationReport
from ..sdp import (
    RELAXATIONS,
    SolveContext,
    cone_for_relaxation,
    relaxation_ladder,
)
from ..sos import SOSProgram
from ..utils import get_logger

LOGGER = get_logger("api.session")

#: Signature of a session timing hook: ``hook(step_name, seconds, detail)``.
TimingHook = Callable[[str, float, str], None]


class VerificationSession:
    """A self-contained verification context (cache, settings, counters, seed).

    Parameters
    ----------
    solver_settings:
        Default :class:`~repro.sdp.admm.ADMMSettings` keywords merged under
        every solve's explicit settings.
    cache / cache_dir:
        Certificate cache: either a ready cache object (``get``/``put``
        protocol) or a directory path for a persistent on-disk
        :class:`~repro.engine.cache.CertificateCache`.  ``None`` disables
        caching.  Mutually exclusive.
    relaxation:
        Default Gram-cone relaxation applied when this session builds
        scenario problems (``"dsos"``/``"sdsos"``/``"chordal"``/``"sos"``/
        ``"auto"``);
        ``None`` keeps each scenario's registered relaxation.
    seed:
        Seed of the session's :meth:`rng` — the deterministic generator for
        sampling work the caller drives (e.g.
        ``repro.analysis.random_initial_states(model, n, rng=session.rng())``).
        The certificate pipeline's own sampling validation keeps its fixed
        internal seeds so reports stay reproducible across sessions.
    timing_hook:
        Optional callable ``(step, seconds, detail)`` invoked for every
        pipeline step timed during :meth:`verify`.
    """

    def __init__(self, *, solver_settings: Optional[Dict[str, object]] = None,
                 cache: Optional[object] = None,
                 cache_dir: Optional[object] = None,
                 relaxation: Optional[str] = None,
                 seed: int = 0,
                 timing_hook: Optional[TimingHook] = None,
                 name: str = "session"):
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache= or cache_dir=, not both")
        if cache is None and cache_dir is not None:
            from ..engine.cache import CertificateCache

            cache = CertificateCache(cache_dir)
        if relaxation is not None and relaxation not in RELAXATIONS:
            raise ValueError(
                f"unknown relaxation {relaxation!r}; expected one of {RELAXATIONS}")
        self.name = name
        self.context = SolveContext(solver_settings=solver_settings,
                                    cache=cache, name=name)
        self.relaxation = relaxation
        self.seed = int(seed)
        self.timing_hook = timing_hook
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    # State owned by the session
    # ------------------------------------------------------------------
    @property
    def cache(self) -> Optional[object]:
        """The session's certificate cache (``None`` when caching is off)."""
        return self.context.cache

    def set_cache(self, cache: Optional[object]) -> Optional[object]:
        """Install (or clear) the session cache; returns the previous one."""
        return self.context.set_cache(cache)

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/write counters of the cache (empty dict when caching is off)."""
        stats = getattr(self.cache, "stats", None)
        return stats.as_dict() if stats is not None else {}

    def solve_counters(self) -> Dict[str, int]:
        """This session's conic solve counters (``solved``, ``cache_hit``, …)."""
        return self.context.solve_counters()

    def compile_counters(self) -> Dict[str, int]:
        """This session's SOS compile counters (``full``, ``memoised``)."""
        return self.context.compile_counters()

    def reset_counters(self) -> None:
        """Zero this session's solve and compile counters."""
        self.context.reset_counters()

    def rng(self) -> np.random.Generator:
        """The session's random generator (seeded once with the session seed).

        One continuing stream: successive calls return the same generator,
        so repeated sampling (e.g. rounds of falsification) draws fresh
        values while the session as a whole stays deterministic.
        """
        return self._rng

    @property
    def default_cone(self) -> Optional[str]:
        """Gram cone implied by the session relaxation (``None`` if unset).

        For ``"auto"`` this is the most expressive rung of the ladder (the
        full PSD cone); the per-stage escalation machinery handles the
        cheaper rungs.
        """
        if self.relaxation is None:
            return None
        return cone_for_relaxation(relaxation_ladder(self.relaxation)[-1])

    # ------------------------------------------------------------------
    # Building blocks bound to this session
    # ------------------------------------------------------------------
    def program(self, name: str = "sos_program",
                default_cone: Optional[str] = None) -> SOSProgram:
        """A fresh :class:`~repro.sos.program.SOSProgram` bound to this session.

        Its compiles and solves run under the session's cache, counters and
        default solver settings.
        """
        cone = default_cone or self.default_cone or "psd"
        return SOSProgram(name=name, default_cone=cone, context=self.context)

    def verifier(self, problem,
                 options: Optional[InevitabilityOptions] = None
                 ) -> InevitabilityVerifier:
        """An :class:`~repro.core.inevitability.InevitabilityVerifier` bound
        to this session's solve context.

        ``problem`` is anything with the verification-model interface (a
        :class:`~repro.scenarios.problem.ScenarioProblem` or
        :class:`~repro.pll.model.PLLVerificationModel`).

        When the caller passes no explicit ``options``, the session's default
        relaxation is applied to a *copy* of the problem's options — matching
        :meth:`verify` — so the same session configuration drives both entry
        points identically; an explicit ``options`` object is used verbatim.
        """
        if options is None and self.relaxation is not None \
                and getattr(problem, "options", None) is not None:
            options = copy.deepcopy(problem.options)
            options.apply_relaxation(self.relaxation)
        return InevitabilityVerifier(problem, options, context=self.context)

    # ------------------------------------------------------------------
    # The facade
    # ------------------------------------------------------------------
    def verify(self, scenario: str,
               options: Optional[InevitabilityOptions] = None
               ) -> VerificationReport:
        """Verify a registered scenario under this session (see :func:`verify`)."""
        return verify(scenario, session=self, options=options)

    def sweep(self, family: Union[str, object],
              jobs: int = 1,
              grid: Optional[Dict[str, tuple]] = None,
              samples: Optional[int] = None,
              seed: Optional[int] = None,
              relaxation: Optional[str] = None,
              resume: bool = False,
              shard_size: Optional[int] = None):
        """Run a parameter sweep family under this session's configuration.

        ``family`` is a registered family name (see
        :func:`repro.sweep.sweep_family_names`) or a
        :class:`~repro.sweep.SweepFamily` instance.  The anchor synthesis
        and every per-point probe solve go through this session's
        certificate cache; ``relaxation`` overrides the family's ladder
        (falling back to the session relaxation, then the family's own).
        Returns a :class:`~repro.sweep.SweepReport`.
        """
        from ..engine.cache import CertificateCache
        from ..sweep import SweepOptions, SweepRunner

        options = SweepOptions(
            jobs=int(jobs),
            relaxation=relaxation or self.relaxation,
            grid=grid, samples=samples, seed=seed,
            resume=resume, shard_size=shard_size,
        )
        cache = self.cache
        if cache is None:
            options.use_cache = False
            runner = SweepRunner(options)
        elif isinstance(cache, CertificateCache):
            # On-disk cache: plain payloads reconstruct it in pool workers.
            options.cache_dir = str(cache.root)
            runner = SweepRunner(options)
        else:
            # A live cache object (e.g. an in-memory double) cannot cross a
            # process boundary; the runner stays inline and hands the object
            # to every _execute_job call.
            runner = SweepRunner(options, cache=cache)
        return runner.run(family)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        counters = self.solve_counters()
        return (f"VerificationSession({self.name!r}: "
                f"relaxation={self.relaxation or 'registered'}, "
                f"cache={'on' if self.cache is not None else 'off'}, "
                f"solved={counters.get('solved', 0)}, "
                f"cache_hit={counters.get('cache_hit', 0)})")

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()


# ----------------------------------------------------------------------
def verify(scenario: str,
           session: Optional[VerificationSession] = None,
           options: Optional[InevitabilityOptions] = None) -> VerificationReport:
    """Verify one registered scenario in-process under a session.

    The stable public facade: builds the scenario problem from the registry
    (honouring the session's relaxation override), runs its job DAG — the
    same jobs as ``repro verify --jobs 1``, falsification cross-check
    included — in the calling thread under the session's solve context,
    feeds each step timing to the session's timing hook, and returns the
    :class:`~repro.core.report.VerificationReport`.

    Running inline is what makes it composable: several sessions can call
    :func:`verify` concurrently from a thread pool, each against its own
    cache/relaxation, with bit-identical results to the serial
    runs.  Process-pool scheduling remains a
    :class:`~repro.engine.VerificationEngine` feature.
    """
    from ..scenarios import build_problem

    session = session or VerificationSession()
    problem = build_problem(scenario, relaxation=session.relaxation)
    # An explicit options object wins over everything the registry or the
    # session configured — the caller asked for precisely this pipeline.
    # Deep-copied, because the pipeline fills scenario-specific defaults
    # (e.g. the S-procedure domain box) into the options it runs with; the
    # caller's object must stay reusable across scenarios.
    verifier = InevitabilityVerifier(
        problem, copy.deepcopy(options) if options is not None else None,
        context=session.context)
    report = verifier.verify()
    report.options_summary["session"] = session.name
    if session.timing_hook is not None:
        for timing in report.timings:
            session.timing_hook(timing.step, timing.seconds, timing.detail)
    return report
