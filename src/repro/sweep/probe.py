"""Per-point recertification probes: the sweep shard's worker-side half.

A shard receives a batch of parameter points plus the *anchor* Lyapunov
certificates (synthesised once per family at the nominal parameters) and
decides, for every point, whether the anchor certificates remain valid and
under which Gram-cone rung — the frontier's "cheapest certifying
relaxation".

Only the decrease condition (Theorem 1(b)) depends on the swept dynamics:
positivity and jump non-increase constrain the fixed certificate polynomials
alone, so they are established once at the anchor and hold verbatim at every
point.  Per point, acceptance mirrors the synthesis pipeline's ladder:

1. deterministic sampling validation of the Lie-derivative decrease at the
   point's dynamics (seeded, pure NumPy — the decisive gate, and a cheap
   filter that skips conic solves in clearly-degraded regions).  The shard
   draws the samples and evaluates the certificate gradients once per mode
   and decrease domain; each point evaluates only its own vector fields;
2. a conic decrease-probe solve per ladder rung; cheap rungs (dsos/sdsos/
   chordal) are accepted only when the recovered Gram certificates are
   numerically sound in the full PSD sense, measured against the point's own
   decrease polynomials, the final rung accepts the solver's candidate —
   exactly `MultipleLyapunovSynthesizer.synthesize`'s escalation semantics
   applied to a fixed certificate.

The shard validates every point first, then walks the ladder once: each rung
solves the probes of all its pending points as one
:meth:`~repro.sdp.SolveContext.solve_many` batch, and the points it does not
certify move on to the next rung.  Every point that reaches the ladder
records its deciding probe (the certifying one, or the last one tried) as
``probe``: the solve's ``status``, ``iterations`` and ``primal_residual``.
Acceptance does not read it; it shows how each verdict's solve ended.

The conic data of each rung's probe family is decomposed affinely over the
sweep axes by :class:`~repro.sos.parametric.MultiParametricSOSProgram`
(one structural compile per rung, pure array re-assembly per point); axes
that enter the dynamics non-affinely (e.g. the PLL's ``c2``) are detected by
the compile-time affinity check and transparently fall back to per-point
rebuilds, reported as ``structure_mode: "rebuild"``.

Every solve goes through the job's :class:`SolveContext` and therefore the
content-addressed certificate cache: a warm re-sweep performs zero SDP
solves, and a perturbed grid re-solves only the changed points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.lyapunov import (
    RELAXATION_EIG_TOL,
    RELAXATION_RES_TOL,
    MultipleLyapunovSynthesizer,
)
from ..engine.serialize import certificates_from_data
from ..scenarios.registry import build_problem
from ..sdp import SolveContext, cone_for_relaxation
from ..sos import DecreaseSamplingPlan, MultiParametricSOSProgram, ParametricProgramError
from ..utils import get_logger

LOGGER = get_logger("sweep.probe")


def _point_problem(scenario: str, params: Dict[str, float]):
    return build_problem(scenario, params=params or None).fill_option_defaults()


def _synthesizer(problem, context: SolveContext) -> MultipleLyapunovSynthesizer:
    return MultipleLyapunovSynthesizer(
        problem.system, options=problem.options.lyapunov, context=context)


class _RungStructure:
    """One Gram-cone rung's compiled probe structure over the sweep axes."""

    def __init__(self, scenario: str, rung: str, certificates,
                 anchor_params: Dict[str, float],
                 base: Dict[str, float], steps: Dict[str, float],
                 context: SolveContext):
        self.rung = rung
        self.cone = cone_for_relaxation(rung)
        self.rebuild_compiles = 0
        self._scenario = scenario
        self._certificates = certificates
        self._anchor = dict(anchor_params)
        self._context = context

        def build_at(params: Dict[str, float]):
            return self._probe_program(params)

        self.family: Optional[MultiParametricSOSProgram] = None
        try:
            family = MultiParametricSOSProgram(
                build_at, base=base, steps=steps, context=context,
                name=f"sweep_{scenario}_{rung}")
            family.compile()
            self.family = family
            self.mode = "parametric"
        except ParametricProgramError as exc:
            # Non-affine axis (or structure change across the range): every
            # point of this rung pays a full rebuild instead.
            LOGGER.info("sweep %s/%s: parametric fast path unavailable (%s); "
                        "falling back to per-point rebuilds",
                        scenario, rung, exc)
            self.mode = "rebuild"

    def _probe_program(self, params: Dict[str, float]):
        problem = _point_problem(self._scenario, {**self._anchor, **params})
        synthesizer = _synthesizer(problem, self._context)
        return synthesizer.decrease_probe_program(
            self._certificates, cone=self.cone,
            name=f"sweep_probe_{self._scenario}_{self.rung}")

    def _rebuild(self, params: Dict[str, float]):
        """``(program, conic)`` compiled from scratch at ``params``."""
        program = self._probe_program(params)
        return program, program.compile()[0].build()

    def conic_at(self, params: Dict[str, float]):
        """The point's conic problem and the program a rebuild compiled it from.

        A parametric rung binds arrays and returns no program; the rebuild
        fallback returns the point's own program for :meth:`certificates_at`.
        """
        if self.family is not None:
            return self.family.bind(params), None
        program, conic = self._rebuild(params)
        self.rebuild_compiles += 1
        return conic, program

    def certificates_at(self, params: Dict[str, float], result, program=None):
        """The point's Gram certificates from a solve of its probe.

        Reconstruction residuals are measured against the point's own
        decrease polynomials: ``program`` is the point's rebuilt probe when
        :meth:`conic_at` returned one, otherwise a fresh build at ``params``
        (the parametric template holds the base point's polynomials).
        """
        if program is None:
            program, _ = self._rebuild(params)
        return program.interpret_result(result, with_certificates=True).certificates

    def stats(self) -> Dict[str, object]:
        parametric = self.family
        return {
            "mode": self.mode,
            "parametric_compiles": 1 if parametric is not None else 0,
            "structure_compiles": (parametric.num_structure_compiles
                                   if parametric is not None else 0),
            "binds": parametric.num_binds if parametric is not None else 0,
            "rebuild_compiles": self.rebuild_compiles,
        }


def run_sweep_shard(payload: Dict[str, object], context: SolveContext
                    ) -> Tuple[str, str, Dict[str, object]]:
    """Execute one sweep shard: certify every point, report cheapest rungs.

    Payload keys: ``scenario``, ``certificates`` (anchor certificates on the
    wire), ``rungs`` (the relaxation ladder, cheapest first), ``base`` /
    ``steps`` (the affine parametrization anchors), ``anchor_params``,
    ``points`` (``[{"index": int, "params": {axis: value}}, ...]``) and
    optional ``probe_settings`` overrides.
    """
    scenario = str(payload["scenario"])
    certificates = certificates_from_data(payload["certificates"])
    rungs = [str(r) for r in payload["rungs"]]
    anchor_params = {k: float(v)
                     for k, v in (payload.get("anchor_params") or {}).items()}
    base = {k: float(v) for k, v in payload["base"].items()}
    steps = {k: float(v) for k, v in payload["steps"].items()}
    probe_settings = dict(payload.get("probe_settings") or {})

    structures: Dict[str, _RungStructure] = {}

    def structure_for(rung: str) -> _RungStructure:
        if rung not in structures:
            structures[rung] = _RungStructure(
                scenario, rung, certificates, anchor_params, base, steps,
                context)
        return structures[rung]

    # Phase 1: sampling validation of every point.  Points that pass it
    # (or are not sampled) are pending on the ladder's first rung.  The
    # samples and certificate gradients are drawn once per mode and decrease
    # domain for the whole shard; each point evaluates only its own fields.
    sampling_plan = DecreaseSamplingPlan()
    outcomes: List[Dict[str, object]] = []
    pending: List[tuple] = []   # (outcome, params, validated, solver settings)
    for entry in payload["points"]:
        index = int(entry["index"])
        params = {k: float(v) for k, v in entry["params"].items()}
        problem = _point_problem(scenario, {**anchor_params, **params})
        options = problem.options.lyapunov
        settings = dict(options.solver_settings)
        settings.update(probe_settings)

        synthesizer = _synthesizer(problem, context)
        reports = synthesizer.validate_certificate_decrease(
            certificates, plan=sampling_plan)
        # With sampling disabled (validate_samples=0) the conic solve is the
        # only evidence, so the final rung then demands full convergence
        # instead of accepting any candidate.
        validated = bool(reports)
        sampling_ok = all(r.passed for r in reports) if validated else True

        outcome: Dict[str, object] = {
            "index": index,
            "params": {k: params[k] for k in sorted(params)},
            "certified": False,
            "rung": None,
            "sampling": sampling_ok,
            "attempts": [],
        }
        outcomes.append(outcome)
        if sampling_ok:
            pending.append((outcome, params, validated, settings))

    # Phase 2: the ladder, cheapest rung first.  Each rung solves its pending
    # points as one batch (one per distinct solver configuration); the points
    # it does not certify go on to the next rung.  The final rung accepts
    # the solver candidate (sampling already passed), cheaper rungs must
    # also reconstruct numerically sound PSD Gram matrices.
    for position, rung in enumerate(rungs):
        if not pending:
            break
        final = position == len(rungs) - 1
        structure = structure_for(rung)
        batches: Dict[str, Tuple[Dict[str, object], list]] = {}
        for point in pending:
            settings = point[3]
            batches.setdefault(repr(sorted(settings.items())),
                               (settings, []))[1].append(point)
        for settings, points in batches.values():
            bound = [structure.conic_at(params) for _, params, _, _ in points]
            results = context.solve_many([conic for conic, _ in bound], **settings)
            for (outcome, params, validated, _), (_, program), result in \
                    zip(points, bound, results):
                outcome["attempts"].append(rung)
                # Overwritten per rung: what remains is the deciding probe.
                outcome["probe"] = {
                    "status": result.status.value,
                    "iterations": int(result.iterations),
                    "primal_residual": float(result.primal_residual),
                }
                accepted = result.x is not None and \
                    (validated or result.is_success or not final)
                if accepted and not final:
                    grams = structure.certificates_at(params, result, program)
                    accepted = bool(grams) and all(
                        gram.is_numerically_sos(
                            eig_tol=RELAXATION_EIG_TOL, res_tol=RELAXATION_RES_TOL)
                        for gram in grams.values())
                if accepted:
                    outcome["certified"] = True
                    outcome["rung"] = rung
        pending = [point for point in pending if not point[0]["certified"]]

    outcomes.sort(key=lambda o: o["index"])
    certified = sum(1 for o in outcomes if o["certified"])
    data = {
        "points": outcomes,
        "structures": {rung: structure.stats()
                       for rung, structure in structures.items()},
    }
    detail = f"{certified}/{len(outcomes)} point(s) recertified"
    return "ok", detail, data
