"""Multiple Lyapunov certificate synthesis (SOS program 1 of the paper, §3).

For every mode ``q`` of the hybrid system a polynomial certificate ``V_q`` is
sought such that (Theorem 1):

(a) ``V_q(x) > 0`` on the mode's domain away from the equilibrium,
(b) the Lie derivative of ``V_q`` along the mode's flow map is non-positive on
    the mode's domain, for every admissible parameter value, and
(c) ``V_{q'}(G(x)) <= V_q(x)`` across every jump from ``q`` to ``q'``.

Every constraint is relaxed to an SOS membership through the S-procedure.
Condition (a) is imposed globally (``V_q - eps ||x||^2`` SOS).  Condition (b)
is quantified over the uncertain-parameter box by vertex enumeration (exact
for dynamics affine in the parameters — the CP PLL case).  The decrease and
jump domains are made compact by one ball ``R^2 - ||x||^2 >= 0`` covering the
state box.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


from ..hybrid import HybridSystem, Mode
from ..polynomial import ParametricPolynomial, Polynomial, VariableVector
from ..sdp import SolveContext, cone_for_relaxation
from ..sos import (
    DecreaseSamples,
    DecreaseSamplingPlan,
    SemialgebraicSet,
    SOSProgram,
    SOSSolution,
    add_positivity_on_set,
    validate_nonnegativity,
)
from ..utils import get_logger
from .config import StageConfig

LOGGER = get_logger("core.lyapunov")


@dataclass
class LyapunovSynthesisOptions(StageConfig):
    """Knobs of the multiple-Lyapunov SOS program.

    Inherits the shared stage knobs (``multiplier_degree``,
    ``solver_settings``, ``relaxation``) from
    :class:`~repro.core.config.StageConfig`.
    """

    certificate_degree: int = 2
    positivity_margin: float = 1e-3      # epsilon * ||x||^2 lower bound on V_q
    domain_boxes: Optional[Sequence[Tuple[float, float]]] = None  # state box for S-procedure
    # Practical-stability relaxation: require the Lie-derivative decrease only where
    # the voltage deviation exceeds this radius (a tube around the lock manifold).
    # 0.0 reproduces the paper's condition verbatim, which cannot hold for
    # constant-current pumping: near lock the constant pump current adds a term
    # linear in the state to the Lie derivative, and that term changes sign.
    lock_tube_radius: float = 0.5
    voltage_indices: Optional[Sequence[int]] = None  # defaults to all states except the last (phase)
    validate_samples: int = 1500
    validation_tolerance: float = 1e-4
    # Extra equality constraints intersected into a mode's domains, keyed by
    # mode name.  The canonical use is pinning a sliding-mode/idle mode to its
    # switching surface (e.g. the CP PLL's mode1 flows only on ``e = 0`` in
    # the relay abstraction): without it the decrease condition is quantified
    # over the full over-approximated flow strip, which is infeasible for
    # dynamics that do not control the switching coordinate.
    mode_equalities: Optional[Mapping[str, Sequence[Polynomial]]] = None


@dataclass
class ModeCertificate:
    """A synthesised Lyapunov certificate for one mode."""

    mode_name: str
    certificate: Polynomial
    domain: SemialgebraicSet

    def value(self, state: Sequence[float]) -> float:
        return self.certificate.evaluate(state)


@dataclass
class LyapunovResult:
    """Outcome of the multiple-Lyapunov synthesis."""

    feasible: bool
    certificates: Dict[str, ModeCertificate]
    solution: Optional[SOSSolution]
    options: LyapunovSynthesisOptions
    synthesis_time: float
    validation_reports: List[object] = field(default_factory=list)
    message: str = ""
    #: Relaxation that produced the returned certificates ("sos" or
    #: "chordal").
    relaxation: str = "sos"

    def certificate_for(self, mode_name: str) -> Polynomial:
        if mode_name not in self.certificates:
            raise KeyError(f"no certificate for mode {mode_name!r}")
        return self.certificates[mode_name].certificate


class MultipleLyapunovSynthesizer:
    """Builds and solves SOS program 1 of the paper for a hybrid system."""

    def __init__(self, system: HybridSystem,
                 options: Optional[LyapunovSynthesisOptions] = None,
                 region_box: Optional[Sequence[Tuple[float, float]]] = None,
                 context: Optional[SolveContext] = None):
        self.system = system
        options = options or LyapunovSynthesisOptions()
        if region_box is not None:
            # A copy: the caller's options must not carry this box into the
            # next synthesizer built from them.
            options = replace(options, domain_boxes=list(region_box))
        self.options = options
        self.context = context

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------
    def _extra_equalities(self, mode_name: str) -> Tuple[Polynomial, ...]:
        if not self.options.mode_equalities:
            return ()
        return tuple(self.options.mode_equalities.get(mode_name, ()))

    def _with_mode_equalities(self, mode_name: str,
                              domain: SemialgebraicSet) -> SemialgebraicSet:
        extra = self._extra_equalities(mode_name)
        if not extra:
            return domain
        return SemialgebraicSet(
            domain.variables,
            inequalities=domain.inequalities,
            equalities=domain.equalities + extra,
            name=f"{domain.name}_pinned",
        )

    def _mode_domain(self, mode: Mode) -> SemialgebraicSet:
        """Full mode domain (flow set intersected with the state box) — used for
        level-set maximisation and sampling validation."""
        domain = mode.flow_set
        if self.options.domain_boxes is not None:
            domain = domain.with_box(self.options.domain_boxes)
        return self._with_mode_equalities(mode.name, domain)

    def mode_domain(self, mode_name: str) -> SemialgebraicSet:
        """Public access to a mode's full domain (used by the job engine)."""
        return self._mode_domain(self.system.mode(mode_name))

    def _lock_tube_constraint(self) -> Optional[Polynomial]:
        """``sum_i v_i^2 - r^2 >= 0`` over the voltage states (None when disabled)."""
        radius = self.options.lock_tube_radius
        if radius <= 0.0:
            return None
        state_vars = self.system.state_variables
        indices = self.options.voltage_indices
        if indices is None:
            indices = range(len(state_vars) - 1)
        return _lock_tube(state_vars, float(radius), tuple(indices))

    def _compactness_constraints(self) -> Tuple[Polynomial, ...]:
        """The ball ``R^2 - ||x||^2 >= 0`` covering the state box (Putinar-style
        S-procedure certificates generally need a compact domain)."""
        boxes = self.options.domain_boxes
        if boxes is None:
            return ()
        return (_compactness_ball(self.system.state_variables,
                                  tuple((lo, hi) for lo, hi in boxes)),)

    def _decrease_domain(self, mode: Mode) -> SemialgebraicSet:
        """Domain for condition (b)."""
        domain = mode.flow_set
        extra: List[Polynomial] = list(self._compactness_constraints())
        tube = self._lock_tube_constraint()
        if tube is not None:
            extra.append(tube)
        if extra:
            domain = SemialgebraicSet(
                domain.variables,
                inequalities=domain.inequalities + tuple(extra),
                equalities=domain.equalities,
                name=f"{domain.name}_offlock",
            )
        return self._with_mode_equalities(mode.name, domain)

    def _jump_domain(self, guard: SemialgebraicSet) -> SemialgebraicSet:
        extra = self._compactness_constraints()
        if not extra:
            return guard
        return SemialgebraicSet(
            guard.variables,
            inequalities=guard.inequalities + extra,
            equalities=guard.equalities,
            name=f"{guard.name}_compact",
        )

    # ------------------------------------------------------------------
    # Vector fields under parameter uncertainty
    # ------------------------------------------------------------------
    def _mode_fields(self, mode: Mode) -> List[Tuple[Polynomial, ...]]:
        """Vector fields to impose the decrease condition on: one state-only
        field per parameter-box corner."""
        if not self.system.parameter_variables or not mode.has_parameters:
            return [mode.flow_map_with_parameters({})]
        return [mode.flow_map_with_parameters(assignment)
                for assignment in self.system.parameter_vertex_assignments()]

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------
    def build_program(self) -> Tuple[SOSProgram, Dict[str, ParametricPolynomial]]:
        options = self.options
        state_vars = self.system.state_variables
        program = SOSProgram(name=f"lyapunov_{self.system.name}",
                             default_cone=cone_for_relaxation(options.relaxation),
                             context=self.context)

        templates: Dict[str, ParametricPolynomial] = {
            mode.name: program.new_polynomial_variable(
                state_vars, options.certificate_degree, name=f"V_{mode.name}",
                min_degree=2)
            for mode in self.system.modes
        }

        # (a) global positivity ``V - eps ||x||^2`` SOS (V(0)=0 holds by
        # construction since the template has no constant/linear monomials);
        # stronger than positivity on the mode domain and needs no S-procedure
        # multipliers.
        margin = Polynomial.zero(state_vars)
        for v in state_vars:
            xi = Polynomial.from_variable(v, state_vars)
            margin = margin + xi * xi
        for mode in self.system.modes:
            program.add_sos_constraint(
                templates[mode.name] - margin * options.positivity_margin,
                name=f"pos_{mode.name}",
            )

        # (b) Lie-derivative decrease on each mode domain for every parameter vertex.
        for mode in self.system.modes:
            domain = self._decrease_domain(mode)
            for k, field_polys in enumerate(self._mode_fields(mode)):
                lie = templates[mode.name].lie_derivative(list(field_polys))
                add_positivity_on_set(
                    program, -lie, domain,
                    multiplier_degree=options.multiplier_degree,
                    name=f"dec_{mode.name}_{k}",
                )

        # (c) non-increase across jumps: V_target(G(x)) <= V_source(x) on the guard.
        for transition in self.system.transitions:
            source = templates[transition.source]
            target = templates[transition.target]
            if transition.is_identity_reset:
                target_after = target
            else:
                reset = [r.with_variables(state_vars)
                         for r in transition.reset_polynomials()]
                target_after = _compose_parametric(target, reset, state_vars)
            add_positivity_on_set(
                program, source - target_after,
                self._jump_domain(transition.guard_set),
                multiplier_degree=options.multiplier_degree,
                name=f"jump_{transition.name}",
            )

        return program, templates

    # ------------------------------------------------------------------
    # Fixed-certificate probes (the sweep planner's per-point query)
    # ------------------------------------------------------------------
    def decrease_probe_program(self, certificates: Mapping[str, Polynomial],
                               name: Optional[str] = None) -> SOSProgram:
        """Feasibility program re-checking condition (b) for *fixed* certificates.

        The certificates are numeric polynomials (no decision variables); the
        only unknowns are the S-procedure multipliers, so the program is far
        smaller than :meth:`build_program` and — crucially for parameter
        sweeps — its conic data is affine in any model constant that enters
        the flow maps affinely.  Conditions (a) and (c) do not involve the
        dynamics at all, so a certificate synthesised at an anchor parameter
        point keeps satisfying them verbatim at every swept point; only the
        decrease condition must be re-established.
        """
        options = self.options
        program = SOSProgram(name=name or f"decrease_probe_{self.system.name}",
                             default_cone=cone_for_relaxation(options.relaxation),
                             context=self.context)
        state_vars = self.system.state_variables
        for mode in self.system.modes:
            certificate = certificates[mode.name].with_variables(state_vars)
            domain = self._decrease_domain(mode)
            for k, field_polys in enumerate(self._mode_fields(mode)):
                lie = certificate.lie_derivative(list(field_polys))
                add_positivity_on_set(
                    program, -lie, domain,
                    multiplier_degree=options.multiplier_degree,
                    name=f"probe_dec_{mode.name}_{k}",
                )
        return program

    def validate_certificate_decrease(self, certificates: Mapping[str, Polynomial],
                                      plan: DecreaseSamplingPlan
                                      ) -> List[DecreaseSamples]:
        """Sampling-based decrease check of fixed certificates on every mode.

        The deterministic (seeded) companion of :meth:`decrease_probe_program`
        — a conic feasibility claim is only accepted once the extracted-level
        numeric check agrees, mirroring :meth:`_validate` without the
        positivity half (which is parameter-independent).

        Returns each check's ``-grad V . f`` at its samples;
        :meth:`~repro.sos.DecreaseSamples.report` turns one into its
        :class:`~repro.sos.ValidationReport`.  ``plan`` shares the drawn
        samples and the certificate gradients between calls (a sweep shard
        passes one plan for all its points), so each call evaluates only its
        own vector fields.
        """
        options = self.options
        samples = options.validate_samples
        if samples <= 0:
            return []
        bounds = options.domain_boxes
        if bounds is None:
            bounds = [(-1.0, 1.0)] * self.system.num_states
        state_vars = self.system.state_variables
        checks = []
        for mode in self.system.modes:
            certificate = certificates[mode.name].with_variables(state_vars)
            decrease_domain = self._decrease_domain(mode)
            for k, field_polys in enumerate(self._mode_fields(mode)):
                checks.append(plan.sample_decrease(
                    certificate, field_polys, decrease_domain, bounds, samples,
                    tolerance=options.validation_tolerance,
                    name=f"probe_decrease[{mode.name}#{k}]",
                ))
        return checks

    # ------------------------------------------------------------------
    def synthesize(self) -> LyapunovResult:
        """Solve the SOS program and validate the resulting certificates.

        One solve under the Gram cone of ``options.relaxation``; the
        extracted certificates are then re-checked by sampling.
        """
        start = time.perf_counter()
        relaxation = self.options.relaxation
        program, templates = self.build_program()
        LOGGER.info("solving %s", program.describe())
        solution = program.solve(**self.options.solver_settings)
        elapsed = time.perf_counter() - start

        # The ADMM solver is a first-order method: a run that stops at the
        # iteration budget (or is suspected infeasible) may still carry a usable
        # approximate certificate.  The decision is therefore delegated to the
        # independent a-posteriori validation of the *extracted* polynomials —
        # which is the sound part of the tool chain — whenever the solver
        # produced a candidate point at all.
        usable = solution.solver_result.x is not None
        if not usable:
            return LyapunovResult(
                feasible=False, certificates={}, solution=solution,
                options=self.options, synthesis_time=elapsed,
                message=f"SOS program not solved: {solution.status.value}",
                relaxation=relaxation,
            )

        certificates: Dict[str, ModeCertificate] = {}
        for mode in self.system.modes:
            poly = solution.polynomial(templates[mode.name]).truncate(1e-12)
            certificates[mode.name] = ModeCertificate(
                mode_name=mode.name, certificate=poly, domain=self._mode_domain(mode))

        reports = self._validate(certificates)
        feasible = all(report.passed for report in reports) if reports else solution.is_success
        if feasible:
            message = "certificates synthesised and validated"
        elif solution.is_success:
            message = "solver returned certificates but sampling validation failed"
        else:
            message = (f"solver stopped with status {solution.status.value} and the "
                       "extracted candidate failed sampling validation")
        return LyapunovResult(
            feasible=feasible, certificates=certificates, solution=solution,
            options=self.options, synthesis_time=elapsed,
            validation_reports=reports, message=message,
            relaxation=relaxation,
        )

    # ------------------------------------------------------------------
    def _validate(self, certificates: Dict[str, ModeCertificate]) -> List[object]:
        """Sampling-based re-check of conditions (a) and (b) at parameter vertices."""
        options = self.options
        if options.validate_samples <= 0:
            return []
        bounds = options.domain_boxes
        if bounds is None:
            bounds = [(-1.0, 1.0)] * self.system.num_states
        # The vertex fields of one mode share its samples and gradient.
        plan = DecreaseSamplingPlan()
        reports = []
        for mode in self.system.modes:
            cert = certificates[mode.name]
            reports.append(validate_nonnegativity(
                cert.certificate, cert.domain, bounds,
                num_samples=options.validate_samples,
                tolerance=options.validation_tolerance,
                name=f"positivity[{mode.name}]",
            ))
            decrease_domain = self._decrease_domain(mode)
            for k, field_polys in enumerate(self._mode_fields(mode)):
                reports.append(plan.sample_decrease(
                    cert.certificate, field_polys, decrease_domain, bounds,
                    options.validate_samples,
                    tolerance=options.validation_tolerance,
                    name=f"decrease[{mode.name}#{k}]",
                ).report())
        return reports


@lru_cache(maxsize=32)
def _lock_tube(state_vars: VariableVector, radius: float,
               indices: Tuple[int, ...]) -> Polynomial:
    """``sum_{i in indices} x_i^2 - radius^2`` (built once per options)."""
    poly = Polynomial.constant(state_vars, -radius ** 2)
    for i in indices:
        xi = Polynomial.from_variable(state_vars[i], state_vars)
        poly = poly + xi * xi
    return poly


@lru_cache(maxsize=32)
def _compactness_ball(state_vars: VariableVector,
                      boxes: Tuple[Tuple[float, float], ...]) -> Polynomial:
    """``R^2 - ||x||^2`` with ``R`` the radius of the ball covering ``boxes``."""
    radius_sq = sum(max(lo * lo, hi * hi) for lo, hi in boxes)
    poly = Polynomial.constant(state_vars, float(radius_sq))
    for v in state_vars:
        xi = Polynomial.from_variable(v, state_vars)
        poly = poly - xi * xi
    return poly


def _compose_parametric(template: ParametricPolynomial,
                        mapping: Sequence[Polynomial],
                        variables: VariableVector) -> ParametricPolynomial:
    """Compose a parametric polynomial with a numeric polynomial map."""
    result = ParametricPolynomial.zero(variables)
    for mono, coeff in template.coefficients.items():
        term = Polynomial.constant(variables, 1.0)
        for i, exp in enumerate(mono.exponents):
            if exp:
                term = term * (mapping[i] ** exp)
        result = result + ParametricPolynomial.from_polynomial(term) * coeff
    return result
