"""Bounded advection of polynomial level sets (§2.5, SOS program (6), Algorithm 1).

The advection operator propagates a sub-level set ``S = {a <= 0}`` forward by
a small time step ``h`` under a polynomial vector field ``f``.  With the
first-order Taylor approximation of the backward flow,
``Phi_{-h}(y) ≈ y - h f(y)``, the advected set is (to first order)

    S_h = { y : a(y - h f(y)) <= 0 }.

Two operators are provided:

* ``"composition"`` — use the composed polynomial ``a(y - h f(y))`` directly.
  For affine vector fields (the CP PLL modes) this does not raise the degree,
  so it is exact with respect to the Taylor map and needs no SOS solve.
* ``"sos_projection"`` — search a fixed-degree polynomial ``b`` whose
  sub-level set sandwiches the composed set within a margin ``epsilon``
  (the shape of the paper's SOS program (6)); all unknowns enter linearly so
  a single SOS solve per step suffices.

Algorithm 1 of the paper is implemented by :func:`run_bounded_advection`:
advect the initial outer set repeatedly and stop as soon as the advected set
is certified (Lemma 1) to be inside the attractive invariant ``X1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


from ..exceptions import CertificateError
from ..polynomial import Polynomial, VariableVector
from ..sdp import SolveContext, cone_for_relaxation
from ..sos import SemialgebraicSet, SOSProgram
from ..utils import get_logger
from .attractive import AttractiveInvariant
from .config import StageConfig
from .inclusion import check_sublevel_inclusion

LOGGER = get_logger("core.advection")


@dataclass
class AdvectionOptions(StageConfig):
    """Options of the bounded-advection stage.

    Inherits the shared stage knobs (``multiplier_degree``,
    ``solver_settings``, ``relaxation``) from
    :class:`~repro.core.config.StageConfig`.  The relaxation governs the
    per-iteration absorption checks (Lemma-1 feasibility certificates).
    The ``sos_projection`` operator's fitting program stays on the full
    PSD cone: its coverage constraint shapes the next advected set.
    """

    time_step: float = 0.05
    max_iterations: int = 40
    operator: str = "composition"          # "composition" | "sos_projection"
    inclusion_check_every: int = 1


@dataclass
class AdvectionStep:
    """One advection iteration."""

    iteration: int
    polynomial: Polynomial
    included_in: Optional[str]      # mode name of the absorbing level set, if any
    epsilon: float = 0.0


@dataclass
class AdvectionResult:
    """Outcome of Algorithm 1 for one mode."""

    mode_name: str
    initial_polynomial: Polynomial
    steps: List[AdvectionStep]
    converged: bool
    absorbing_mode: Optional[str]
    iterations_used: int
    total_time: float

    @property
    def final_polynomial(self) -> Polynomial:
        return self.steps[-1].polynomial if self.steps else self.initial_polynomial

    def polynomial_history(self) -> List[Polynomial]:
        return [self.initial_polynomial] + [s.polynomial for s in self.steps]


class LevelSetAdvector:
    """Single-step advection of a polynomial sub-level set."""

    def __init__(self, options: Optional[AdvectionOptions] = None,
                 context: Optional[SolveContext] = None):
        self.options = options or AdvectionOptions()
        self.context = context

    # ------------------------------------------------------------------
    def taylor_backward_map(self, variables: VariableVector,
                            vector_field: Sequence[Polynomial],
                            time_step: Optional[float] = None) -> List[Polynomial]:
        """The first-order Taylor backward-flow map ``y -> y - h f(y)``."""
        h = self.options.time_step if time_step is None else float(time_step)
        mapping = []
        for i, variable in enumerate(variables):
            xi = Polynomial.from_variable(variable, variables)
            mapping.append(xi - vector_field[i].with_variables(variables) * h)
        return mapping

    def advect_composition(self, level_poly: Polynomial,
                           vector_field: Sequence[Polynomial],
                           time_step: Optional[float] = None) -> Polynomial:
        """Exact composition with the Taylor backward map."""
        variables = level_poly.variables
        mapping = self.taylor_backward_map(variables, vector_field, time_step)
        return level_poly.compose(mapping).truncate(1e-14)

    def advect_sos_projection(self, level_poly: Polynomial,
                              vector_field: Sequence[Polynomial],
                              domain: Optional[SemialgebraicSet] = None,
                              time_step: Optional[float] = None,
                              ) -> Tuple[Polynomial, float]:
        """Fixed-degree projection of the advected set (paper's SOS program (6)).

        Finds ``b`` of the level polynomial's degree (rounded up to even) and
        the smallest ``epsilon`` with

        * ``comp(y) <= 0  =>  b(y) <= 0``      (advected set covered), and
        * ``b(y) <= comp(y) + epsilon`` on the domain (tightness),

        where ``comp(y) = a(y - h f(y))``.
        """
        options = self.options
        comp = self.advect_composition(level_poly, vector_field, time_step)
        variables = comp.variables
        degree = level_poly.degree
        if degree % 2 == 1:
            degree += 1

        program = SOSProgram(name="advection_projection", context=self.context)
        b = program.new_polynomial_variable(variables, degree, name="b_next")
        epsilon = program.new_variable(name="epsilon")
        program.add_scalar_constraint(epsilon, sense=">=")

        # Coverage: comp <= 0  =>  b <= 0  (Lemma 1 with SOS multiplier).
        lam = program.new_sos_polynomial(variables, options.multiplier_degree, name="lam_cov")
        program.add_sos_constraint(lam * comp - b, name="coverage")

        # Tightness: comp - epsilon <= b <= comp + epsilon on the domain.
        from ..polynomial import ParametricPolynomial

        comp_param = ParametricPolynomial.from_polynomial(comp)
        upper = comp_param + epsilon - b
        lower = b - comp_param + epsilon
        if domain is not None:
            for k, g in enumerate(domain.inequalities):
                sig_u = program.new_sos_polynomial(variables, options.multiplier_degree,
                                                   name=f"sig_u{k}")
                sig_l = program.new_sos_polynomial(variables, options.multiplier_degree,
                                                   name=f"sig_l{k}")
                upper = upper - sig_u * g.with_variables(variables)
                lower = lower - sig_l * g.with_variables(variables)
        program.add_sos_constraint(upper, name="tight_upper")
        program.add_sos_constraint(lower, name="tight_lower")
        program.minimize(epsilon)

        solution = program.solve(**options.solver_settings)
        if not solution.is_success:
            raise CertificateError(
                f"SOS-projected advection step failed: {solution.status.value}"
            )
        return solution.polynomial(b).truncate(1e-12), float(solution.value(epsilon))

    def advect(self, level_poly: Polynomial, vector_field: Sequence[Polynomial],
               domain: Optional[SemialgebraicSet] = None,
               time_step: Optional[float] = None) -> Tuple[Polynomial, float]:
        """Dispatch on the configured operator; returns ``(polynomial, epsilon)``."""
        if self.options.operator == "composition":
            return self.advect_composition(level_poly, vector_field, time_step), 0.0
        if self.options.operator == "sos_projection":
            return self.advect_sos_projection(level_poly, vector_field, domain, time_step)
        raise CertificateError(f"unknown advection operator {self.options.operator!r}")


def check_absorbed(polynomial: Polynomial, invariant: AttractiveInvariant,
                    domain: Optional[SemialgebraicSet],
                    options: AdvectionOptions,
                    context: Optional[SolveContext] = None) -> Optional[str]:
    """Return the name of a level set of ``X1`` certified to contain the set."""
    cone = cone_for_relaxation(options.relaxation)
    for mode_name, sublevel in invariant.sublevel_polynomials().items():
        inclusion = check_sublevel_inclusion(
            polynomial, sublevel,
            multiplier_degree=options.multiplier_degree,
            domain=domain,
            cone=cone,
            context=context,
            **options.solver_settings,
        )
        if inclusion.holds:
            return mode_name
    return None


def run_bounded_advection(
    mode_name: str,
    initial_polynomial: Polynomial,
    vector_field: Sequence[Polynomial],
    invariant: AttractiveInvariant,
    domain: Optional[SemialgebraicSet] = None,
    options: Optional[AdvectionOptions] = None,
    context: Optional[SolveContext] = None,
) -> AdvectionResult:
    """Algorithm 1 (lines 1-12): advect until absorbed in ``X1`` or out of budget."""
    options = options or AdvectionOptions()
    advector = LevelSetAdvector(options, context=context)
    start = time.perf_counter()

    steps: List[AdvectionStep] = []
    current = initial_polynomial
    converged = False
    absorbing: Optional[str] = None

    # The initial set may already be inside the invariant.
    absorbing = check_absorbed(current, invariant, domain, options, context)
    if absorbing is not None:
        return AdvectionResult(
            mode_name=mode_name, initial_polynomial=initial_polynomial, steps=[],
            converged=True, absorbing_mode=absorbing, iterations_used=0,
            total_time=time.perf_counter() - start,
        )

    for iteration in range(1, options.max_iterations + 1):
        current, epsilon = advector.advect(current, vector_field, domain)
        included_in = None
        if iteration % max(options.inclusion_check_every, 1) == 0 \
                or iteration == options.max_iterations:
            included_in = check_absorbed(current, invariant, domain, options,
                                          context)
        steps.append(AdvectionStep(iteration=iteration, polynomial=current,
                                   included_in=included_in, epsilon=epsilon))
        if included_in is not None:
            converged = True
            absorbing = included_in
            break

    return AdvectionResult(
        mode_name=mode_name,
        initial_polynomial=initial_polynomial,
        steps=steps,
        converged=converged,
        absorbing_mode=absorbing,
        iterations_used=len(steps),
        total_time=time.perf_counter() - start,
    )
