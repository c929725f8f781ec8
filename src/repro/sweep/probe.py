"""Per-point recertification probes: the sweep shard's worker-side half.

A shard receives a batch of parameter points plus the *anchor* Lyapunov
certificates (synthesised once per family at the nominal parameters) and
decides, for every point, whether the anchor certificates remain valid.

Only the decrease condition (Theorem 1(b)) depends on the swept dynamics:
positivity and jump non-increase constrain the fixed certificate polynomials
alone, so they are established once at the anchor and hold verbatim at every
point.  Per point, acceptance takes two gates:

1. deterministic sampling validation of the Lie-derivative decrease at the
   point's dynamics (seeded, pure NumPy — the decisive gate, and a cheap
   filter that skips conic solves in clearly-degraded regions).  The shard
   draws the samples and evaluates the certificate gradients once per mode
   and decrease domain; each point evaluates only its own vector fields;
2. one conic decrease-probe solve under the scenario's registered Gram-cone
   relaxation — the one its anchor synthesis used — by the interior-point
   method of :mod:`repro.sdp.ipm`.  A point that passed sampling is
   accepted on any solver candidate; with sampling disabled the solve must
   converge.

The shard validates every point first, then solves the probes of all
points that passed as one :meth:`~repro.sdp.SolveContext.solve_many` batch
with ``solver="ipm"``.  Each probe ends in a solution, in ``infeasible``
with a Farkas certificate that was checked on the probe's own data, or in
``max_iterations``; the interior-point method takes no settings.  Every
probed point records its solve as ``probe``: the ``status``,
``iterations`` and ``primal_residual``.  Acceptance does not read it; it
shows how each verdict's solve ended.

The conic data of the probe family is decomposed affinely over the sweep
axes by :class:`~repro.sos.parametric.MultiParametricSOSProgram` (one
structural compile per shard, pure array re-assembly per point); axes that
enter the dynamics non-affinely (e.g. the PLL's ``c2``) are detected by the
compile-time affinity check and transparently fall back to per-point
rebuilds, reported as ``structure_mode: "rebuild"``.

Every solve goes through the job's :class:`SolveContext` and therefore the
content-addressed certificate cache: a warm re-sweep performs zero SDP
solves, and a perturbed grid re-solves only the changed points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.lyapunov import MultipleLyapunovSynthesizer
from ..engine.serialize import certificates_from_data
from ..scenarios.registry import build_problem, get_scenario
from ..sdp import SolveContext
from ..sos import DecreaseSamplingPlan, MultiParametricSOSProgram, ParametricProgramError
from ..utils import get_logger

LOGGER = get_logger("sweep.probe")


def _point_problem(scenario: str, params: Dict[str, float]):
    return build_problem(scenario, params=params or None).fill_option_defaults()


def _synthesizer(problem, context: SolveContext) -> MultipleLyapunovSynthesizer:
    return MultipleLyapunovSynthesizer(
        problem.system, options=problem.options.lyapunov, context=context)


class _ProbeStructure:
    """The shard's compiled decrease-probe structure over the sweep axes."""

    def __init__(self, scenario: str, certificates,
                 anchor_params: Dict[str, float],
                 base: Dict[str, float], steps: Dict[str, float],
                 context: SolveContext):
        self.rebuild_compiles = 0
        self._scenario = scenario
        self._certificates = certificates
        self._anchor = dict(anchor_params)
        self._context = context

        self.family: Optional[MultiParametricSOSProgram] = None
        try:
            family = MultiParametricSOSProgram(
                self._probe_program, base=base, steps=steps, context=context,
                name=f"sweep_{scenario}")
            family.compile()
            self.family = family
            self.mode = "parametric"
        except ParametricProgramError as exc:
            # Non-affine axis (or structure change across the range): every
            # point pays a full rebuild instead.
            LOGGER.info("sweep %s: parametric fast path unavailable (%s); "
                        "falling back to per-point rebuilds", scenario, exc)
            self.mode = "rebuild"

    def _probe_program(self, params: Dict[str, float]):
        problem = _point_problem(self._scenario, {**self._anchor, **params})
        synthesizer = _synthesizer(problem, self._context)
        return synthesizer.decrease_probe_program(
            self._certificates, name=f"sweep_probe_{self._scenario}")

    def conic_at(self, params: Dict[str, float]):
        """The point's conic problem: an array bind, or a full rebuild."""
        if self.family is not None:
            return self.family.bind(params)
        self.rebuild_compiles += 1
        return self._probe_program(params).compile()[0].build()

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
    """Execute one sweep shard: recertify every point.

    Payload keys: ``scenario``, ``certificates`` (anchor certificates on the
    wire), ``base`` / ``steps`` (the affine parametrization anchors),
    ``anchor_params``, ``points`` (``[{"index": int, "params": {axis:
    value}}, ...]``).
    """
    scenario = str(payload["scenario"])
    certificates = certificates_from_data(payload["certificates"])
    anchor_params = {k: float(v)
                     for k, v in (payload.get("anchor_params") or {}).items()}
    base = {k: float(v) for k, v in payload["base"].items()}
    steps = {k: float(v) for k, v in payload["steps"].items()}

    # Phase 1: sampling validation of every point.  Points that pass it
    # (or are not sampled) go on to the conic probe.  The samples and
    # certificate gradients are drawn once per mode and decrease domain for
    # the whole shard; each point evaluates only its own fields.
    sampling_plan = DecreaseSamplingPlan()
    outcomes: List[Dict[str, object]] = []
    pending: List[tuple] = []   # (outcome, params, validated)
    for entry in payload["points"]:
        index = int(entry["index"])
        params = {k: float(v) for k, v in entry["params"].items()}
        problem = _point_problem(scenario, {**anchor_params, **params})
        synthesizer = _synthesizer(problem, context)
        reports = synthesizer.validate_certificate_decrease(
            certificates, plan=sampling_plan)
        # With sampling disabled (validate_samples=0) the conic solve is the
        # only evidence, so acceptance then demands full convergence instead
        # of accepting any candidate.
        validated = bool(reports)
        sampling_ok = all(r.passed for r in reports) if validated else True

        outcome: Dict[str, object] = {
            "index": index,
            "params": {k: params[k] for k in sorted(params)},
            "certified": False,
            "sampling": sampling_ok,
        }
        outcomes.append(outcome)
        if sampling_ok:
            pending.append((outcome, params, validated))

    # Phase 2: the conic probes of every pending point, one batch.
    structures: Dict[str, Dict[str, object]] = {}
    if pending:
        structure = _ProbeStructure(scenario, certificates, anchor_params,
                                    base, steps, context)
        conics = [structure.conic_at(params) for _, params, _ in pending]
        results = context.solve_many(conics, solver="ipm")
        for (outcome, _, validated), result in zip(pending, results):
            outcome["probe"] = {
                "status": result.status.value,
                "iterations": int(result.iterations),
                "primal_residual": float(result.primal_residual),
            }
            outcome["certified"] = bool(
                result.x is not None and (validated or result.is_success))
        structures[get_scenario(scenario).relaxation] = structure.stats()

    outcomes.sort(key=lambda o: o["index"])
    certified = sum(1 for o in outcomes if o["certified"])
    data = {"points": outcomes, "structures": structures}
    detail = f"{certified}/{len(outcomes)} point(s) recertified"
    return "ok", detail, data
