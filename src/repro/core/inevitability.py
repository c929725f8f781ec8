"""End-to-end inevitability verification (the paper's methodology, §3).

The paper proves inevitability with one chain of steps:

1. multiple Lyapunov certificate synthesis (Property 1, Theorem 1/2),
2. level-curve maximisation producing the attractive invariant ``X1``,
3. bounded advection of the outer set ``X2`` per pumping mode (Algorithm 1),
4. escape-certificate search for modes where advection stays inconclusive.

That chain is the job DAG of :mod:`repro.engine.engine`; this module holds
the per-step helpers its jobs call, the aggregated options, and
:class:`InevitabilityVerifier`, which runs the DAG in-process and returns the
:class:`~repro.core.report.VerificationReport` with the per-step timing
breakdown of Table 2.
"""

from __future__ import annotations

import copy
import functools
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple


from ..exceptions import CertificateError
from ..pll.model import MODE_IDLE, PLLVerificationModel
from ..sdp import RELAXATIONS, SolveContext
from ..sos import SemialgebraicSet
from .advection import AdvectionOptions, check_absorbed, run_bounded_advection
from .attractive import AttractiveInvariant
from .escape import EscapeCertificateSynthesizer, EscapeOptions, escape_region_from_advection
from .levelset import LevelSetOptions
from .lyapunov import LyapunovSynthesisOptions, MultipleLyapunovSynthesizer
from .properties import ModePropertyTwoResult, VerificationStatus
from .report import VerificationReport


def advection_mode_names(options: "InevitabilityOptions", system) -> Tuple[str, ...]:
    """Modes whose outer-set advection is required by Property 2: an
    explicit ``advection_modes`` override, else every mode except the idle
    mode.  The job engine plans one advection job per mode named here.
    """
    if options.advection_modes is not None:
        return tuple(options.advection_modes)
    return tuple(name for name in system.mode_names if name != MODE_IDLE)


def run_mode_property_two(model, options: "InevitabilityOptions",
                          mode_name: str, invariant: AttractiveInvariant,
                          context: Optional[SolveContext] = None,
                          ) -> Tuple[ModePropertyTwoResult, Dict[str, float]]:
    """Property-2 evidence for one mode: advection, inclusion re-check, escape.

    The body of the job engine's per-mode advection job.  ``model`` is
    anything with the verification-model interface; ``context`` the solve
    context all conic work of the mode runs under.  Returns the mode result
    plus the wall-clock of each stage (keys ``"advection"``, ``"inclusion"`` and —
    only when an escape search ran — ``"escape"``).
    """
    outer = model.outer_set_polynomial()
    field_polys = model.nominal_fields()[mode_name]
    domain = model.mode_domain(mode_name)
    timings: Dict[str, float] = {}

    start = time.perf_counter()
    advection = run_bounded_advection(
        mode_name, outer, field_polys, invariant, domain=domain,
        options=options.advection, context=context)
    timings["advection"] = time.perf_counter() - start

    # Dedicated inclusion re-check of the final advected set (Table 2 row),
    # needed only when advection did not already certify absorption.
    start = time.perf_counter()
    final_abs: Optional[str] = None
    if not advection.converged:
        final_abs = check_absorbed(advection.final_polynomial, invariant,
                                   domain, options.advection, context)
    timings["inclusion"] = time.perf_counter() - start

    mode_result = functools.partial(
        ModePropertyTwoResult, mode_name=mode_name,
        iterations=advection.iterations_used, converged=advection.converged)
    if advection.converged or final_abs is not None:
        return mode_result(
            status=VerificationStatus.VERIFIED,
            message=f"advected set absorbed by level set of "
                    f"{advection.absorbing_mode or final_abs}",
            relaxation=(options.advection.relaxation
                        if final_abs is not None else None),
        ), timings

    # Advection inconclusive: Algorithm 1 lines 13-21 (escape certificate).
    if not options.attempt_escape_on_inconclusive:
        return mode_result(
            status=VerificationStatus.INCONCLUSIVE,
            message="advection did not immerse and escape search disabled",
        ), timings

    own_level = invariant.level_set(mode_name) if mode_name in invariant.level_sets \
        else next(iter(invariant.level_sets.values()))
    escape_region = escape_region_from_advection(
        advection.final_polynomial, own_level.sublevel_polynomial,
        region_box=model.region_box_set(),
    )
    synthesizer = EscapeCertificateSynthesizer(options.escape, context=context)
    start = time.perf_counter()
    try:
        escape = synthesizer.synthesize(
            mode_name, field_polys, escape_region,
            bounds=model.state_bounds(),
        )
        timings["escape"] = time.perf_counter() - start
        mode_status = VerificationStatus.VERIFIED if escape.validation_passed \
            else VerificationStatus.FAILED
        return mode_result(
            status=mode_status, escape_found=True,
            message="escape certificate covers the inconclusive sub-region",
        ), timings
    except CertificateError as exc:
        timings["escape"] = time.perf_counter() - start
        return mode_result(status=VerificationStatus.INCONCLUSIVE,
                           message=str(exc)), timings


def levelset_domain_for(model, options: "InevitabilityOptions",
                        mode_name: str) -> SemialgebraicSet:
    """Domain over which ``mode_name``'s level curve is maximised.

    ``model`` is anything with the verification-model interface
    (``system``, ``region_box_set``, ``state_bounds``); the job engine's
    level-set job calls this — see :attr:`InevitabilityOptions.levelset_domain`
    for the semantics.
    """
    if options.levelset_domain == "box":
        return model.region_box_set(name="levelset_box")
    if options.levelset_domain != "mode":
        raise ValueError(
            f"unknown levelset_domain {options.levelset_domain!r}; "
            "expected 'mode' or 'box'")
    synthesizer = MultipleLyapunovSynthesizer(model.system,
                                              options=options.lyapunov)
    return synthesizer.mode_domain(mode_name)


@dataclass
class InevitabilityOptions:
    """Aggregated options for the four verification stages."""

    lyapunov: LyapunovSynthesisOptions = field(default_factory=LyapunovSynthesisOptions)
    levelset: LevelSetOptions = field(default_factory=LevelSetOptions)
    advection: AdvectionOptions = field(default_factory=AdvectionOptions)
    escape: EscapeOptions = field(default_factory=EscapeOptions)
    advection_modes: Optional[Sequence[str]] = None   # default: all pumping modes
    verify_property_two: bool = True
    attempt_escape_on_inconclusive: bool = True
    # Domain over which each mode's level curve is maximised: ``"mode"`` uses
    # the mode's flow set intersected with the region box (the historical
    # behaviour), ``"box"`` uses the region box alone.  ``"mode"`` is overly
    # strong for modes whose flow set touches the equilibrium (a sub-level
    # neighbourhood of the equilibrium can never sit inside a half-space
    # through it), so workloads with switching surfaces through the
    # equilibrium — the CP PLL pumping modes, sliding-mode converters —
    # should use ``"box"``.
    levelset_domain: str = "mode"
    # Gram-cone relaxation of the certificate pipeline: "sos" | "chordal".
    # Setting it here (at construction or via :meth:`apply_relaxation`)
    # propagates to every stage's options and to the Property-2 inclusion
    # re-check.
    relaxation: str = "sos"

    def __post_init__(self) -> None:
        if self.relaxation != "sos":
            self.apply_relaxation(self.relaxation)

    def stages(self) -> Tuple[LyapunovSynthesisOptions, LevelSetOptions,
                              AdvectionOptions, EscapeOptions]:
        """The four per-stage configs (all :class:`~repro.core.config.StageConfig`)."""
        return (self.lyapunov, self.levelset, self.advection, self.escape)

    def apply_relaxation(self, relaxation: str) -> None:
        """Set the Gram-cone relaxation of every pipeline stage."""
        relaxation = str(relaxation).lower()
        if relaxation not in RELAXATIONS:
            raise ValueError(
                f"unknown relaxation {relaxation!r}; expected one of {RELAXATIONS}")
        self.relaxation = relaxation
        for stage in self.stages():
            stage.relaxation = relaxation


class InevitabilityVerifier:
    """Verify inevitability of phase-locking for a verification model.

    ``model`` is a :class:`~repro.pll.model.PLLVerificationModel` or a
    :class:`~repro.scenarios.problem.ScenarioProblem`; ``options`` default to
    the problem's own (a bare model gets :class:`InevitabilityOptions`).
    The verifier runs on a deep copy of the options: it fills
    problem-specific defaults (the S-procedure domain box) into them, and
    the caller's object must stay reusable across problems.
    """

    def __init__(self, model: PLLVerificationModel,
                 options: Optional[InevitabilityOptions] = None,
                 context: Optional[SolveContext] = None):
        # The scenario layer imports this module; import it at call time.
        from ..scenarios.problem import ScenarioProblem

        if options is None:
            options = model.options if isinstance(model, ScenarioProblem) \
                else InevitabilityOptions()
        options = copy.deepcopy(options)
        if isinstance(model, ScenarioProblem):
            problem = replace(model, options=options)
        else:
            problem = ScenarioProblem.from_pll_model(model, options)
        self.problem = problem.fill_option_defaults()
        self.options = self.problem.options
        self.context = context

    def verify(self) -> VerificationReport:
        """Run the problem's job DAG in-process and return the report.

        The same jobs and report as ``repro verify --jobs 1``, run in the
        calling thread under this verifier's solve context; exceptions
        propagate.
        """
        # The engine imports this module; import it at call time.
        from ..engine.engine import run_in_process

        return run_in_process(self.problem, context=self.context)
