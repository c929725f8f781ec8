"""Level-curve maximisation (second SOS program of §3).

Given a Lyapunov certificate ``V_q`` and the mode domain
``D_q = {x : g_1 >= 0, ..., g_k >= 0}``, find the largest ``c_q`` such that
the sub-level set ``{V_q <= c_q}`` is contained in ``D_q``.  Containment in
each ``{g_j >= 0}`` is certified through Lemma 1; since the certificate is
bilinear in ``(c, multipliers)`` the maximisation probes candidate levels.

Two strategies are available:

* ``"batched"`` (default): one :class:`ParametricInclusionFamily` per domain
  inequality is compiled **once**; each round binds ``K`` candidate levels
  (K-section — the bracket shrinks by ``K+1`` per round instead of 2) and
  solves all of them through the batched ADMM engine with warm starts carried
  between rounds and per-problem convergence masking.
* ``"serial"``: the original per-level path — a fresh Lemma-1 program per
  probe — kept as the reference baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CertificateError
from ..polynomial import Polynomial
from ..sdp import SolveContext, cone_for_relaxation
from ..sos import SemialgebraicSet
from ..utils import get_logger
from .config import StageConfig
from .inclusion import ParametricInclusionFamily, check_sublevel_inclusion

LOGGER = get_logger("core.levelset")

#: Cap on the upper-bound doublings of the expansion phase (as in the serial
#: bisection: ``upper * 2**12`` is the largest bracket ever probed).
_MAX_EXPANSIONS = 12
#: Candidate levels probed per batched round (the ``K`` of K-section); the
#: bracket shrinks by ``K+1`` per round.
_LEVELS_PER_ROUND = 6


@dataclass
class LevelSetOptions(StageConfig):
    """Options of the level-curve maximisation.

    Inherits the shared stage knobs (``multiplier_degree``,
    ``solver_settings``, ``relaxation``) from
    :class:`~repro.core.config.StageConfig`.
    """

    bisection_tolerance: float = 1e-3
    max_bisection_iterations: int = 40
    initial_upper_bound: Optional[float] = None
    #: ``"batched"`` — parametric compile + K-section through the batch ADMM
    #: engine; ``"serial"`` — the per-level reference path.
    strategy: str = "batched"


@dataclass
class MaximizedLevelSet:
    """The maximised sub-level set ``{certificate <= level}`` of one mode."""

    mode_name: str
    certificate: Polynomial
    level: float
    iterations: int
    certified_levels: List[float] = field(default_factory=list)
    rejected_levels: List[float] = field(default_factory=list)
    #: Relaxation whose certificates produced ``level`` (``"sos"`` or
    #: ``"chordal"``).
    relaxation: str = "sos"

    @property
    def sublevel_polynomial(self) -> Polynomial:
        """Polynomial whose 0-sub-level set is the maximised level set."""
        return self.certificate - self.level

    def contains(self, state: Sequence[float], tolerance: float = 1e-9) -> bool:
        return self.certificate.evaluate(state) <= self.level + tolerance


class LevelSetMaximizer:
    """Maximise ``c`` with ``{V <= c} ⊆ D`` over Lemma-1 queries."""

    def __init__(self, options: Optional[LevelSetOptions] = None,
                 context: Optional[SolveContext] = None):
        self.options = options or LevelSetOptions()
        self.context = context
        # Per-inequality warm-start data carried across bisection levels
        # (reset at the start of each maximisation; all queries of one
        # maximisation share the same SDP structure).  The batched path keys
        # by (family index -> {level: data}); the serial path by family index.
        self._warm_starts: Dict[object, object] = {}
        self._rejections: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _level_is_certified(self, certificate: Polynomial, level: float,
                            domain: SemialgebraicSet, cone: str = "psd") -> bool:
        """One feasibility query: ``{V - level <= 0} ⊆ {g_j >= 0}`` for every j."""
        inner = certificate - level
        for k, constraint in enumerate(domain.inequalities):
            inclusion = check_sublevel_inclusion(
                inner, -constraint,
                multiplier_degree=self.options.multiplier_degree,
                warm_start=self._warm_starts.get(k),
                cone=cone,
                context=self.context,
                **self.options.solver_settings,
            )
            if inclusion.warm_start_data is not None:
                self._warm_starts[k] = inclusion.warm_start_data
            if not inclusion.holds:
                return False
        return True

    def _default_upper_bound(self, certificate: Polynomial,
                             domain: SemialgebraicSet,
                             bounds: Optional[Sequence[Tuple[float, float]]]) -> float:
        """A sampling-based upper bound: min of V on the domain boundary-ish samples."""
        if bounds is None:
            return 10.0 * max(certificate.max_abs_coefficient(), 1.0)
        rng = np.random.default_rng(7)
        lows = np.array([b[0] for b in bounds])
        highs = np.array([b[1] for b in bounds])
        points = rng.uniform(lows, highs, size=(4000, len(bounds)))
        outside = ~domain.contains_many(points)
        if not np.any(outside):
            values = certificate.evaluate_many(points)
            return float(values.max()) * 2.0 + 1.0
        return float(certificate.evaluate_many(points[outside]).min())

    # ------------------------------------------------------------------
    def maximize(self, mode_name: str, certificate: Polynomial,
                 domain: SemialgebraicSet,
                 bounds: Optional[Sequence[Tuple[float, float]]] = None) -> MaximizedLevelSet:
        """Find the largest certified level of one certificate.

        The whole maximisation runs under the Gram cone of
        ``options.relaxation``; a :class:`CertificateError` reports that no
        positive level was certified.
        """
        relaxation = self.options.relaxation
        cone = cone_for_relaxation(relaxation)
        if self.options.strategy == "serial":
            result = self._maximize_serial(mode_name, certificate, domain,
                                           bounds, cone)
        else:
            result = self._maximize_batched(mode_name, certificate, domain,
                                            bounds, cone)
        result.relaxation = relaxation
        return result

    # ------------------------------------------------------------------
    # Batched K-section path
    # ------------------------------------------------------------------
    def _nearest_warm_start(self, family_index: int, level: float) -> Optional[dict]:
        """Warm-start data of the closest previously solved level of a family.

        Solutions vary continuously in the level parameter, so the nearest
        solved neighbour is the best available initial iterate; K-section
        rounds shrink the bracket by ``K+1`` per round, making the neighbours
        progressively tighter.
        """
        store = self._warm_starts.get(family_index)
        if not store:
            return None
        nearest = min(store, key=lambda theta: abs(theta - level))
        return store[nearest]

    def _certify_batch(self, families: List[ParametricInclusionFamily],
                       levels: np.ndarray) -> np.ndarray:
        """Feasibility of each level against every inequality, batch-solved.

        One batch per inequality family (each K levels wide), processed in
        decreasing order of past rejections with per-level pruning: the
        binding constraint usually rejects first, so the remaining families
        only see the surviving levels — mirroring the serial path's
        short-circuit while keeping each solve inside the batched engine.
        """
        from ..sdp import solve_conic_problems

        options = self.options
        ok = np.ones(levels.shape[0], dtype=bool)
        order = sorted(range(len(families)),
                       key=lambda j: -self._rejections.get(j, 0))
        for j in order:
            alive = np.flatnonzero(ok)
            if alive.size == 0:
                break
            family = families[j]
            problems = [family.bind(float(levels[i])) for i in alive]
            starts = [self._nearest_warm_start(j, float(levels[i])) for i in alive]
            results = solve_conic_problems(
                problems, warm_starts=starts,
                context=self.context, **options.solver_settings)
            for position, i in enumerate(alive):
                result = results[position]
                warm = result.info.get("warm_start_data")
                if warm is not None:
                    self._warm_starts.setdefault(j, {})[float(levels[i])] = warm
                if not (result.status.is_success and result.x is not None):
                    ok[i] = False
                    self._rejections[j] = self._rejections.get(j, 0) + 1
        return ok

    @staticmethod
    def _certified_prefix(flags: np.ndarray) -> int:
        """Length of the leading certified run (the monotone interpretation)."""
        rejected = np.flatnonzero(~flags)
        return int(rejected[0]) if rejected.size else int(flags.shape[0])

    def _maximize_batched(self, mode_name: str, certificate: Polynomial,
                          domain: SemialgebraicSet,
                          bounds: Optional[Sequence[Tuple[float, float]]],
                          cone: str = "psd") -> MaximizedLevelSet:
        options = self.options
        self._warm_starts = {}
        self._rejections = {}
        upper = options.initial_upper_bound
        if upper is None:
            upper = self._default_upper_bound(certificate, domain, bounds)
        upper = max(float(upper), options.bisection_tolerance)
        lower = 0.0

        families = [
            ParametricInclusionFamily(
                certificate, -constraint,
                multiplier_degree=options.multiplier_degree,
                cone=cone,
                context=self.context,
            ).compile()
            for constraint in domain.inequalities
        ]

        certified: List[float] = []
        rejected: List[float] = []
        iterations = 0

        if not families:
            # No inequalities: every level is trivially certified; mirror the
            # serial path's expansion cap.
            lower = upper * (2.0 ** _MAX_EXPANSIONS)
            certified.append(lower)
            iterations = _MAX_EXPANSIONS

        # Phase 1 — probe the initial upper bound once (this also discovers
        # which inequality binds, ordering later rounds); only when it is
        # certified, expand with geometric ladders probed one batch per round.
        bracket_open = False
        if families:
            flags = self._certify_batch(families, np.array([upper]))
            iterations += 1
            if flags[0]:
                certified.append(upper)
                lower = upper
                bracket_open = True
            else:
                rejected.append(upper)
        expansions = 1
        while bracket_open and expansions <= _MAX_EXPANSIONS:
            count = min(_LEVELS_PER_ROUND, _MAX_EXPANSIONS - expansions + 1)
            ladder = lower * (2.0 ** np.arange(1, count + 1))
            flags = self._certify_batch(families, ladder)
            iterations += 1
            prefix = self._certified_prefix(flags)
            certified.extend(float(level) for level in ladder[:prefix])
            if prefix > 0:
                lower = float(ladder[prefix - 1])
            if prefix < count:
                rejected.append(float(ladder[prefix]))
                upper = float(ladder[prefix])
                bracket_open = False
            else:
                expansions += count
        if bracket_open:
            # Expansion cap reached with everything certified.
            upper = lower * 2.0

        # Phase 2 — K-section: probe K interior levels per round, shrinking
        # the bracket by (K+1)x per round.
        best = lower
        while (upper - lower) > options.bisection_tolerance and \
                iterations < options.max_bisection_iterations and families:
            span = upper - lower
            levels = lower + span * (np.arange(1, _LEVELS_PER_ROUND + 1)
                                     / (_LEVELS_PER_ROUND + 1.0))
            flags = self._certify_batch(families, levels)
            iterations += 1
            prefix = self._certified_prefix(flags)
            certified.extend(float(level) for level in levels[:prefix])
            rejected.extend(float(level) for level in levels[prefix:])
            if prefix > 0:
                best = lower = float(levels[prefix - 1])
            if prefix < _LEVELS_PER_ROUND:
                upper = float(levels[prefix])

        if best <= 0.0:
            raise CertificateError(
                f"level-curve maximisation for {mode_name!r} found no positive certified level"
            )
        return MaximizedLevelSet(
            mode_name=mode_name, certificate=certificate, level=best,
            iterations=iterations, certified_levels=certified, rejected_levels=rejected,
        )

    # ------------------------------------------------------------------
    # Serial reference path (the original per-level bisection)
    # ------------------------------------------------------------------
    def _maximize_serial(self, mode_name: str, certificate: Polynomial,
                         domain: SemialgebraicSet,
                         bounds: Optional[Sequence[Tuple[float, float]]],
                         cone: str = "psd") -> MaximizedLevelSet:
        """Bisect for the largest certified level of one certificate."""
        options = self.options
        self._warm_starts = {}
        upper = options.initial_upper_bound
        if upper is None:
            upper = self._default_upper_bound(certificate, domain, bounds)
        upper = max(float(upper), options.bisection_tolerance)
        lower = 0.0

        certified: List[float] = []
        rejected: List[float] = []

        # Ensure the upper end is genuinely infeasible (otherwise expand).
        expansions = 0
        while self._level_is_certified(certificate, upper, domain, cone):
            certified.append(upper)
            lower = upper
            upper *= 2.0
            expansions += 1
            if expansions > _MAX_EXPANSIONS:
                break

        iterations = expansions
        best = lower
        while (upper - lower) > options.bisection_tolerance and \
                iterations < options.max_bisection_iterations:
            mid = 0.5 * (lower + upper)
            iterations += 1
            if self._level_is_certified(certificate, mid, domain, cone):
                certified.append(mid)
                best = mid
                lower = mid
            else:
                rejected.append(mid)
                upper = mid

        if best <= 0.0:
            raise CertificateError(
                f"level-curve maximisation for {mode_name!r} found no positive certified level"
            )
        return MaximizedLevelSet(
            mode_name=mode_name, certificate=certificate, level=best,
            iterations=iterations, certified_levels=certified, rejected_levels=rejected,
        )

    # ------------------------------------------------------------------
    def maximize_all(self, certificates: Dict[str, Polynomial],
                     domains: Dict[str, SemialgebraicSet],
                     bounds: Optional[Sequence[Tuple[float, float]]] = None,
                     ) -> Dict[str, MaximizedLevelSet]:
        """Maximise the level curve of every mode certificate.

        Every mode runs through the configured strategy — with the default
        batched engine each mode compiles its inclusion families once and
        probes its whole level ladder in batched rounds.
        """
        results: Dict[str, MaximizedLevelSet] = {}
        for mode_name, certificate in certificates.items():
            domain = domains[mode_name]
            start = time.perf_counter()
            results[mode_name] = self.maximize(mode_name, certificate, domain, bounds)
            LOGGER.info("level set for %s: c=%.4g (%s, %.2fs)", mode_name,
                        results[mode_name].level, self.options.strategy,
                        time.perf_counter() - start)
        return results
