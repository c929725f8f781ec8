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
   and decrease domain.  It evaluates each check's ``-grad V . f`` at the
   probe family's structural points only; where those values are exactly
   affine in the sweep axes, every point's reports come from
   ``v0 + Σ t_k·Δv_k``, with no model of its own.  Otherwise each point
   builds its model and evaluates its own vector fields.  The shard stats
   name the path (``sampling``: ``"affine"`` or ``"per_point"``) and count
   the ``model_builds``;
2. one conic decrease-probe solve under the scenario's registered Gram-cone
   relaxation — the one its anchor synthesis used — by the interior-point
   method of :mod:`repro.sdp.ipm`.  A point that passed sampling is
   accepted on any solver candidate; with sampling disabled the solve must
   converge.

Each point records ``sampling_vacuous``: how many of its decrease checks
landed no sample in their domain and so passed without evidence.

The probe checks each mode's decrease condition with that mode's own
multipliers, so it is one independent block per mode, and the
interior-point method solves each block on its own.  A block whose data
does not move with the sweep axes is solved once for all points of the
batch: on the Ip ladder that is pll3's mode1, where the charge pump is off
and ``i_p`` does not enter the dynamics.  A probe's blocks are solved only
up to the first one, in mode order, whose Farkas certificate refutes the
whole probe: on the Ip ladder mode2's block refutes every probe, so mode3's
is never solved, the probe's ``x`` is zero on mode3's columns and its
``info["solved_components"]`` is 2 of 3.

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
rebuilds, reported as ``mode: "rebuild"`` (and ``sampling: "per_point"``).
Both gates share the models built at the structural points.

Every solve goes through the job's :class:`SolveContext` and therefore the
content-addressed certificate cache: a warm re-sweep performs zero SDP
solves, and a perturbed grid re-solves only the changed points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

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


def _key(params: Dict[str, float]) -> tuple:
    return tuple(sorted(params.items()))


class _ProbeStructure:
    """The shard's decrease-probe structure over the sweep axes.

    Both gates read the models built at the probe family's structural
    points (the base, one step along each axis and the joint probe): the
    conic family compiles from them, and the sampling gate evaluates each
    decrease check there once.  Where those values are affine in the axes,
    every point's sampling reports are ``v0 + Σ t_k·Δv_k``; otherwise each
    point builds and evaluates its own model.
    """

    def __init__(self, scenario: str, certificates,
                 anchor_params: Dict[str, float],
                 base: Dict[str, float], steps: Dict[str, float],
                 context: SolveContext):
        self.model_builds = 0
        self.rebuild_compiles = 0
        self._scenario = scenario
        self._certificates = certificates
        self._anchor = dict(anchor_params)
        self._context = context
        self._models: Dict[tuple, object] = {}
        self._plan = DecreaseSamplingPlan()

        self.family: Optional[MultiParametricSOSProgram] = None
        family = MultiParametricSOSProgram(
            self._structural_program, base=base, steps=steps,
            context=context, name=f"sweep_{scenario}")
        try:
            family.compile()
            self.family = family
            self.mode = "parametric"
        except ParametricProgramError as exc:
            # Non-affine axis (or structure change across the range): every
            # point pays a full rebuild instead.
            LOGGER.info("sweep %s: parametric fast path unavailable (%s); "
                        "falling back to per-point rebuilds", scenario, exc)
            self.mode = "rebuild"
        # A family that failed its affinity check compiled its structural
        # programs all the same.
        self.structure_compiles = family.num_structure_compiles
        self._affine = self._affine_checks() if self.family is not None else None
        self.sampling = "per_point" if self._affine is None else "affine"

    def _model(self, params: Dict[str, float]):
        """The point's model: a kept structural one, or a fresh build."""
        model = self._models.get(_key(params))
        if model is None:
            self.model_builds += 1
            model = _point_problem(self._scenario, {**self._anchor, **params})
        return model

    def _probe_program(self, model):
        return _synthesizer(model, self._context).decrease_probe_program(
            self._certificates, name=f"sweep_probe_{self._scenario}")

    def _structural_program(self, params: Dict[str, float]):
        """The family's build callable; keeps each structural point's model."""
        model = self._models[_key(params)] = self._model(params)
        return self._probe_program(model)

    def _decrease_checks(self, params: Dict[str, float]):
        synthesizer = _synthesizer(self._model(params), self._context)
        return synthesizer.validate_certificate_decrease(
            self._certificates, plan=self._plan)

    def _affine_checks(self):
        """``(checks at the base, per-axis slopes)`` of every decrease check,
        or ``None`` unless affine combination is exact.

        Exact means: every structural point runs the same checks on the same
        draw of samples with the same tolerance, and at the joint probe the
        combined values equal direct evaluation within the ``1e-9·scale``
        test the conic family passed.
        """
        family = self.family
        points = family.structural_points()
        base, *displaced, probe = [self._decrease_checks(point)
                                   for point in points]
        signature = [(c.name, c.draw, c.tolerance) for c in base]
        if any([(c.name, c.draw, c.tolerance) for c in checks] != signature
               for checks in (*displaced, probe)):
            return None
        affine = [(check, np.array([axis[k].values - check.values
                                    for axis in displaced]))
                  for k, check in enumerate(base)]
        t = family.coordinates(points[-1])
        for (check, slopes), direct in zip(affine, probe):
            combined = check.values + t @ slopes
            scale = 1.0 + float(np.abs(direct.values).max(initial=0.0))
            if float(np.abs(combined - direct.values).max(initial=0.0)) > 1e-9 * scale:
                return None
        return affine

    def sampling_reports(self, params: Dict[str, float]):
        """The point's decrease-check reports: affine combinations of the
        structural values, or evaluations of the point's own model."""
        if self._affine is None:
            return [check.report() for check in self._decrease_checks(params)]
        t = self.family.coordinates(params)
        return [check.report(check.values + t @ slopes)
                for check, slopes in self._affine]

    def conic_at(self, params: Dict[str, float]):
        """The point's conic problem: an array bind, or a full rebuild."""
        if self.family is not None:
            return self.family.bind(params)
        self.rebuild_compiles += 1
        return self._probe_program(self._model(params)).compile()[0].build()

    def stats(self) -> Dict[str, object]:
        parametric = self.family
        return {
            "mode": self.mode,
            "sampling": self.sampling,
            "model_builds": self.model_builds,
            "parametric_compiles": 1 if parametric is not None else 0,
            "structure_compiles": self.structure_compiles,
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
    structure = _ProbeStructure(scenario, certificates, anchor_params,
                                base, steps, context)

    # Phase 1: sampling validation of every point.  Points that pass it
    # (or are not sampled) go on to the conic probe.
    outcomes: List[Dict[str, object]] = []
    pending: List[tuple] = []   # (outcome, params, validated)
    for entry in payload["points"]:
        index = int(entry["index"])
        params = {k: float(v) for k, v in entry["params"].items()}
        reports = structure.sampling_reports(params)
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
            # Checks no sample landed in: they passed without evidence.
            "sampling_vacuous": sum(1 for r in reports if r.num_in_domain == 0),
        }
        outcomes.append(outcome)
        if sampling_ok:
            pending.append((outcome, params, validated))

    # Phase 2: the conic probes of every pending point, one batch.
    conics = [structure.conic_at(params) for _, params, _ in pending]
    results = context.solve_many(conics, solver="ipm") if conics else []
    for (outcome, _, validated), result in zip(pending, results):
        outcome["probe"] = {
            "status": result.status.value,
            "iterations": int(result.iterations),
            "primal_residual": float(result.primal_residual),
        }
        outcome["certified"] = bool(
            result.x is not None and (validated or result.is_success))

    outcomes.sort(key=lambda o: o["index"])
    certified = sum(1 for o in outcomes if o["certified"])
    data = {"points": outcomes,
            "structures": {get_scenario(scenario).relaxation: structure.stats()}}
    detail = f"{certified}/{len(outcomes)} point(s) recertified"
    return "ok", detail, data
