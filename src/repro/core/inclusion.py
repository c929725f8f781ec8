"""Polynomial sub-level-set operations based on Lemma 1 of the paper.

Lemma 1: for polynomials ``p1, p2`` and SOS multipliers ``s0, s1`` with
``s0 - s1 p1 + p2 = 0`` it holds that ``L(p1) ⊂ L(p2)`` where ``L(p)`` is the
0-sub-level set ``{x : p(x) <= 0}``.  Equivalently (the form used here):
``-p2 + s1 * p1`` being SOS certifies the inclusion, because ``p1(x) <= 0``
then forces ``p2(x) <= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..polynomial import ParametricPolynomial, Polynomial
from ..sdp import SolveContext, SolverResult, normalize_gram_cone, solve_conic_problems
from ..sos import ParametricSOSProgram, SemialgebraicSet, SOSProgram
from ..utils import get_logger

LOGGER = get_logger("core.inclusion")


@dataclass
class InclusionCertificate:
    """Result of a Lemma-1 inclusion check ``{inner <= 0} ⊆ {outer <= 0}``.

    ``cone`` records the Gram cone the certificate was searched in
    (``"psd"`` or ``"chordal"``).
    """

    holds: bool
    multiplier: Optional[Polynomial]
    status: str
    inner: Polynomial
    outer: Polynomial
    warm_start_data: Optional[dict] = None
    cone: str = "psd"

    def __bool__(self) -> bool:
        return self.holds


def build_inclusion_program(
    inner: Polynomial,
    outer: Polynomial,
    multiplier_degree: int = 2,
    domain: Optional[SemialgebraicSet] = None,
    cone: str = "psd",
    context: Optional[SolveContext] = None,
    multiplier_support: str = "dense",
) -> Tuple[SOSProgram, ParametricPolynomial, Polynomial, Polynomial]:
    """Construct the Lemma-1 feasibility program for one inclusion query.

    Returns ``(program, lambda_template, inner_aligned, outer_aligned)``; the
    query is feasible iff ``λ·inner − outer`` (minus domain S-procedure
    terms) admits an SOS certificate with ``λ`` SOS.  ``cone`` selects the
    Gram cone of every SOS constraint in the program (``"psd"`` or
    ``"chordal"``); ``context`` the governing solve
    context.  ``multiplier_support`` shapes the multiplier templates:
    ``"dense"`` (every monomial up to ``multiplier_degree``, the default) or
    ``"diagonal"`` (``1, x_i^2, x_i^4, ...`` — a separable template that
    preserves the correlative sparsity of sparse certificates, so the
    ``"chordal"`` cone can actually split the product's Gram block; a dense
    multiplier fills the sparsity graph and collapses the decomposition to
    one clique).
    """
    if multiplier_support not in ("dense", "diagonal"):
        raise ValueError(
            f"unknown multiplier_support {multiplier_support!r}; "
            "expected 'dense' or 'diagonal'")
    diagonal = multiplier_support == "diagonal"
    variables = inner.variables.union(outer.variables)
    inner_v = inner.with_variables(variables)
    outer_v = outer.with_variables(variables)

    program = SOSProgram(name="sublevel_inclusion", default_cone=cone,
                         context=context)
    lam = program.new_sos_polynomial(variables, multiplier_degree,
                                     name="lambda", diagonal_only=diagonal)
    expr = lam * inner_v - outer_v
    if domain is not None:
        for k, constraint in enumerate(domain.inequalities):
            sigma = program.new_sos_polynomial(variables, multiplier_degree,
                                               name=f"dom{k}",
                                               diagonal_only=diagonal)
            expr = expr - sigma * constraint.with_variables(variables)
    program.add_sos_constraint(expr, name="inclusion")
    return program, lam, inner_v, outer_v


def check_sublevel_inclusion(
    inner: Polynomial,
    outer: Polynomial,
    multiplier_degree: int = 2,
    domain: Optional[SemialgebraicSet] = None,
    warm_start: Optional[dict] = None,
    cone: str = "psd",
    context: Optional[SolveContext] = None,
    multiplier_support: str = "dense",
    **solver_settings,
) -> InclusionCertificate:
    """Certify ``{inner <= 0} ⊆ {outer <= 0}`` via Lemma 1.

    The optional ``domain`` restricts the claim to a semialgebraic set (its
    constraints enter through additional S-procedure multipliers), which keeps
    the certificate search feasible when the inclusion only holds locally.
    ``warm_start`` takes the ``warm_start_data`` of a previous structurally
    identical query (e.g. the neighbouring level of a bisection loop); the
    returned certificate carries this solve's data for the next query.  For
    families of queries differing only in a level parameter, use
    :class:`ParametricInclusionFamily` instead — it compiles the structure
    once and re-assembles each query as a sparse array operation.
    """
    program, lam, inner_v, outer_v = build_inclusion_program(
        inner, outer, multiplier_degree=multiplier_degree, domain=domain,
        cone=cone, context=context, multiplier_support=multiplier_support)
    solution = program.solve(warm_start=warm_start, **solver_settings)
    warm_data = solution.solver_result.info.get("warm_start_data")

    if not solution.is_success:
        return InclusionCertificate(holds=False, multiplier=None,
                                    status=solution.status.value,
                                    inner=inner_v, outer=outer_v,
                                    warm_start_data=warm_data,
                                    cone=program.default_cone)
    multiplier = solution.polynomial(lam)
    return InclusionCertificate(holds=True, multiplier=multiplier,
                                status=solution.status.value,
                                inner=inner_v, outer=outer_v,
                                warm_start_data=warm_data,
                                cone=program.default_cone)


class ParametricInclusionFamily:
    """The θ-family ``{certificate − θ <= 0} ⊆ {outer <= 0}``, compiled once.

    The level enters the Lemma-1 certificate affinely through
    ``λ·(certificate − θ)``, so the whole bisection/K-section ladder of a
    level-curve maximisation shares one compiled structure: after the initial
    :class:`~repro.sos.parametric.ParametricSOSProgram` compile, every probe
    is a :meth:`bind` (sparse re-assembly) plus a conic solve — typically
    batched across levels via :func:`repro.sdp.solve_conic_problems`.
    """

    def __init__(self, certificate: Polynomial, outer: Polynomial,
                 multiplier_degree: int = 2,
                 domain: Optional[SemialgebraicSet] = None,
                 probes: Tuple[float, float] = (0.0, 1.0),
                 cone: str = "psd",
                 context: Optional[SolveContext] = None,
                 multiplier_support: str = "dense"):
        self.certificate = certificate
        self.outer = outer
        self.cone = normalize_gram_cone(cone)
        self.context = context
        self.variables = certificate.variables.union(outer.variables)

        def build(theta: float):
            program, lam, _, _ = build_inclusion_program(
                certificate - theta, outer,
                multiplier_degree=multiplier_degree, domain=domain,
                cone=cone, context=context,
                multiplier_support=multiplier_support)
            return program, lam

        self.family = ParametricSOSProgram(build, probes=probes,
                                           name="inclusion_family",
                                           context=context)

    # ------------------------------------------------------------------
    def compile(self) -> "ParametricInclusionFamily":
        self.family.compile()
        return self

    def bind(self, level: float):
        """The conic problem of the query at ``level`` (no recompilation)."""
        return self.family.bind(level)

    def bind_many(self, levels: Sequence[float]) -> List[object]:
        return self.family.bind_many(levels)

    # ------------------------------------------------------------------
    def interpret(self, level: float, result: SolverResult,
                  extract_multiplier: bool = False) -> InclusionCertificate:
        """Wrap a solver result of a bound query as an :class:`InclusionCertificate`."""
        holds = result.status.is_success and result.x is not None
        multiplier = None
        if holds and extract_multiplier:
            solution = self.family.interpret(result)
            multiplier = solution.polynomial(self.family.payload)
        return InclusionCertificate(
            holds=holds,
            multiplier=multiplier,
            status=result.status.value,
            inner=(self.certificate - level).with_variables(self.variables),
            outer=self.outer.with_variables(self.variables),
            warm_start_data=result.info.get("warm_start_data"),
            cone=self.cone,
        )

    def check_levels(self, levels: Sequence[float],
                     warm_starts: Optional[Sequence[Optional[dict]]] = None,
                     **solver_settings) -> List[InclusionCertificate]:
        """Solve the queries at ``levels`` as one batch (the fast path)."""
        problems = self.bind_many(levels)
        results = solve_conic_problems(problems, warm_starts=warm_starts,
                                       context=self.context, **solver_settings)
        return [self.interpret(level, result)
                for level, result in zip(levels, results)]


def sample_inclusion_counterexample(
    inner: Polynomial,
    outer: Polynomial,
    bounds: Sequence[Tuple[float, float]],
    num_samples: int = 4000,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> Optional[np.ndarray]:
    """Search for a point with ``inner <= 0`` but ``outer > 0`` (falsification).

    Returns a counterexample point or ``None``.  Used to cross-check negative
    answers from :func:`check_sublevel_inclusion` (the SOS relaxation is sound
    but incomplete, so "no certificate" does not imply "no inclusion").
    """
    rng = np.random.default_rng(seed)
    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])
    variables = inner.variables.union(outer.variables)
    inner_v = inner.with_variables(variables)
    outer_v = outer.with_variables(variables)
    points = rng.uniform(lows, highs, size=(num_samples, len(bounds)))
    inner_vals = inner_v.evaluate_many(points)
    outer_vals = outer_v.evaluate_many(points)
    mask = (inner_vals <= tolerance) & (outer_vals > tolerance)
    if not np.any(mask):
        return None
    candidates = points[mask]
    worst = int(np.argmax(outer_v.evaluate_many(candidates)))
    return candidates[worst]


def sublevel_set_is_empty(poly: Polynomial, bounds: Sequence[Tuple[float, float]],
                          num_samples: int = 4000, seed: int = 0) -> bool:
    """Heuristic emptiness check of ``{poly <= 0}`` inside a box (by sampling)."""
    rng = np.random.default_rng(seed)
    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])
    points = rng.uniform(lows, highs, size=(num_samples, len(bounds)))
    return bool(np.all(poly.evaluate_many(points) > 0.0))
