"""Sum-of-Squares programming layer.

An :class:`SOSProgram` collects

* scalar decision variables,
* polynomial decision variables (templates with unknown coefficients),
* SOS constraints ``p(x; d) ∈ Σ[x]``,
* polynomial equality constraints ``p(x; d) ≡ 0``,
* scalar affine inequality / equality constraints, and
* an optional linear objective,

and compiles them into a single conic SDP via Gram-matrix parameterisation
and coefficient matching.  This is the role YALMIP's ``solvesos`` plays in the
paper; here it is a self-contained pure-Python implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..polynomial import (
    DecisionVariable,
    LinExpr,
    Monomial,
    ParametricPolynomial,
    Polynomial,
    VariableVector,
    gram_basis_for_degree,
    gram_product_table,
    monomial_basis,
)
from ..sdp import (
    ConicProblemBuilder,
    GramBlockHandle,
    SolveContext,
    SolverResult,
    SolverStatus,
    default_context,
    normalize_gram_cone,
    solve_conic_problem,
)

PolyExpr = Union[ParametricPolynomial, Polynomial]
ScalarExpr = Union[LinExpr, DecisionVariable, float, int]


class SOSProgramError(RuntimeError):
    """Raised when an SOS program is malformed or cannot be compiled."""


# Compile accounting lives on the governing SolveContext.  ``full`` counts
# actual coefficient-matching assemblies; ``memoised`` counts compile() calls
# served from a program's cache.  The parametric-solve layer asserts against
# these counters that a bound bisection query never triggers a recompile.
# Without an explicit context the module-level accessors read the
# *process-wide aggregate* (it also covers work done inside per-job
# contexts).
def compile_counters(context: Optional[SolveContext] = None) -> Dict[str, int]:
    """SOS compile counters: ``context``'s own, or the process-wide aggregate."""
    if context is not None:
        return context.compile_counters()
    from ..sdp.context import aggregate_compile_counters

    return aggregate_compile_counters()


@dataclass(frozen=True)
class _SOSRowPlan:
    """Precomputed coefficient-matching layout for one (basis, support) pair.

    The equality rows of an SOS constraint are one per monomial in the union
    of the Gram product support and the expression support; the Gram side of
    every row is a pure function of that union, so it is assembled once as COO
    triplets and cached.  A recompile with the same structure only has to fill
    in the numeric coefficients.
    """

    monomials: Tuple[Monomial, ...]
    row_of: Mapping[Monomial, int]
    pair_rows: np.ndarray      # row index of each upper-triangle Gram pair
    pair_i: np.ndarray         # Gram row of each pair (i <= j)
    pair_j: np.ndarray         # Gram column of each pair
    pair_weight: np.ndarray    # symmetric-expansion multiplicity (1 diag, 2 off)
    is_product_row: np.ndarray  # rows reachable by the Gram expansion

    @property
    def num_rows(self) -> int:
        return len(self.monomials)


@lru_cache(maxsize=1024)
def _sos_row_plan(basis: Tuple[Monomial, ...],
                  support: Tuple[Monomial, ...]) -> _SOSRowPlan:
    table = gram_product_table(basis)
    extra = [m for m in support if m not in table.product_index]
    monomials = sorted(set(table.products) | set(extra), key=Monomial.sort_key)
    row_of = {m: r for r, m in enumerate(monomials)}
    product_rows = np.array([row_of[m] for m in table.products], dtype=np.int64)
    pair_rows = product_rows[table.pair_product]
    # The plan stays Gram-cone agnostic: it records which upper-triangle
    # entry (i, j) lands in which row with which symmetric multiplicity; the
    # per-cone lowering (svec locals of one PSD block, or of each chordal
    # clique block) happens in the GramBlockHandle at compile time.
    is_product_row = np.zeros(len(monomials), dtype=bool)
    is_product_row[product_rows] = True
    pair_rows.setflags(write=False)
    is_product_row.setflags(write=False)
    return _SOSRowPlan(
        monomials=tuple(monomials),
        row_of=row_of,
        pair_rows=pair_rows,
        pair_i=table.pair_i,
        pair_j=table.pair_j,
        pair_weight=table.pair_weight,
        is_product_row=is_product_row,
    )


@lru_cache(maxsize=1024)
def _gram_sparsity_edges(basis: Tuple[Monomial, ...],
                         support: Tuple[Monomial, ...]
                         ) -> Tuple[Tuple[int, int], ...]:
    """Correlative-sparsity edges of one Gram constraint (cached).

    Vertices are the Gram-basis monomials; an edge connects ``(i, j)`` when
    the product ``basis[i] * basis[j]`` is a monomial the constraint can
    actually touch: a member of the expression's support, or the square of a
    basis monomial (squares are always admissible — their coefficient-matching
    rows exist whether or not the expression carries the monomial, and cross
    terms landing on a square must be allowed to cancel against it, e.g. the
    ``1 * x^2`` entry of ``(x^2 - 1)^2``).  Entries outside the pattern are
    structurally zero in the chordal lowering; the pattern is chordally
    extended by :func:`repro.sdp.chordal.chordal_decomposition`.
    """
    table = gram_product_table(basis)
    diagonal = table.pair_i == table.pair_j
    allowed = set(np.unique(table.pair_product[diagonal]).tolist())
    for mono in support:
        index = table.product_index.get(mono)
        if index is not None:
            allowed.add(index)
    off = ~diagonal
    keep = np.isin(table.pair_product[off],
                   np.asarray(sorted(allowed), dtype=np.int64))
    return tuple(zip(table.pair_i[off][keep].tolist(),
                     table.pair_j[off][keep].tolist()))


@dataclass
class SOSConstraint:
    """An SOS membership constraint ``expr ∈ Σ[x]`` recorded in a program.

    ``cone`` selects the Gram cone of this constraint's Gram matrix
    (``"psd"`` = full SOS, ``"chordal"`` = clique-decomposed SOS); ``None``
    inherits the program's
    default cone at compile time.  ``cone_options`` are extra keyword
    options for the cone lowering (e.g. the ``merge_size``/``merge_overlap``
    clique-merge knobs of the chordal cone), stored as a sorted item tuple
    so the dataclass stays hashable-friendly.
    """

    name: str
    expression: ParametricPolynomial
    basis: Tuple[Monomial, ...]
    cone: Optional[str] = None
    cone_options: Tuple[Tuple[str, object], ...] = ()

    @property
    def gram_order(self) -> int:
        return len(self.basis)


@dataclass
class EqualityConstraint:
    """A polynomial identity ``expr ≡ 0`` (coefficient-wise equality)."""

    name: str
    expression: ParametricPolynomial


@dataclass
class ScalarConstraint:
    """A scalar affine constraint ``expr {>=, ==} 0``."""

    name: str
    expression: LinExpr
    sense: str  # ">=" or "=="


@dataclass
class SOSCertificate:
    """Post-solve data attached to one SOS constraint.

    ``gram`` is always the *full* Gram matrix — for the chordal cone it is
    assembled from the clique blocks, so the eigenvalue test of
    :meth:`is_numerically_sos` applies uniformly to both cones.
    ``structure_margin`` additionally reports the cone's own margin (the
    summed negative part of the clique blocks' minimum eigenvalues for
    chordal, the plain minimum eigenvalue for PSD); it lower-bounds
    ``min_eigenvalue``, so a nonnegative value certifies the block
    decomposition itself.
    """

    name: str
    polynomial: Polynomial
    gram: np.ndarray
    basis: Tuple[Monomial, ...]
    min_eigenvalue: float
    reconstruction_error: float
    cone: str = "psd"
    structure_margin: Optional[float] = None

    def is_numerically_sos(self, eig_tol: float = -1e-7, res_tol: float = 1e-5) -> bool:
        return self.min_eigenvalue >= eig_tol and self.reconstruction_error <= res_tol


@dataclass
class SOSSolution:
    """Result of solving an :class:`SOSProgram`."""

    status: SolverStatus
    assignment: Dict[DecisionVariable, float]
    certificates: Dict[str, SOSCertificate]
    objective: float
    solver_result: SolverResult
    compile_time: float
    solve_time: float

    @property
    def is_success(self) -> bool:
        return self.status.is_success

    def value(self, expr: ScalarExpr) -> float:
        return LinExpr.coerce(expr).evaluate(self.assignment)

    def polynomial(self, expr: PolyExpr) -> Polynomial:
        if isinstance(expr, Polynomial):
            return expr
        return expr.instantiate(self.assignment)


class SOSProgram:
    """A container for SOS constraints compiled to a conic SDP.

    ``default_cone`` selects the Gram cone applied to every SOS constraint
    that does not carry its own ``cone=``: ``"psd"`` (full SOS, the
    default) or ``"chordal"`` (clique-sized PSD blocks over the chordally
    extended correlative-sparsity pattern — exact for chordally-sparse
    constraints).  The relaxation name ``"sos"`` is accepted for ``"psd"``.

    ``context`` is the :class:`~repro.sdp.context.SolveContext` whose cache,
    counters and default settings govern this program's compiles and solves;
    ``None`` uses the process-default context (the historical behaviour).
    """

    def __init__(self, name: str = "sos_program", default_cone: str = "psd",
                 context: Optional[SolveContext] = None):
        self.name = name
        self.context = context
        self._default_cone = normalize_gram_cone(default_cone)
        self._decision_variables: Dict[int, DecisionVariable] = {}
        self._sos_constraints: List[SOSConstraint] = []
        self._equality_constraints: List[EqualityConstraint] = []
        self._scalar_constraints: List[ScalarConstraint] = []
        self._objective: Optional[LinExpr] = None
        self._objective_sense: str = "min"
        self._counter = 0
        self._compiled: Optional[Tuple[ConicProblemBuilder,
                                       Dict[DecisionVariable, Tuple[int, int]],
                                       List[Tuple[SOSConstraint, GramBlockHandle]]]] = None

    def _invalidate(self) -> None:
        self._compiled = None

    @property
    def default_cone(self) -> str:
        """Gram cone used for constraints without an explicit ``cone=``."""
        return self._default_cone

    @default_cone.setter
    def default_cone(self, cone: str) -> None:
        self._default_cone = normalize_gram_cone(cone)
        self._invalidate()

    # ------------------------------------------------------------------
    # Variable creation
    # ------------------------------------------------------------------
    def _fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def new_variable(self, name: Optional[str] = None) -> DecisionVariable:
        """A single scalar decision variable."""
        var = DecisionVariable(name or self._fresh_name("d"))
        self._decision_variables[var.uid] = var
        self._invalidate()
        return var

    def new_polynomial_variable(
        self,
        variables: VariableVector,
        degree: int,
        name: Optional[str] = None,
        min_degree: int = 0,
        even_only: bool = False,
        diagonal_only: bool = False,
    ) -> ParametricPolynomial:
        """A polynomial template with one free coefficient per monomial.

        ``even_only`` keeps even-total-degree monomials; ``diagonal_only``
        keeps only the constant and even pure powers of single variables
        (``1, x_i^2, x_i^4, ...``) — the *separable* template that preserves
        the correlative sparsity of whatever the template multiplies, which
        is what makes the chordal Gram decomposition effective downstream.
        """
        name = name or self._fresh_name("p")
        basis = monomial_basis(len(variables), degree, min_degree)
        if even_only:
            basis = tuple(m for m in basis if m.degree % 2 == 0)
        if diagonal_only:
            basis = tuple(
                m for m in basis
                if m.degree % 2 == 0
                and sum(1 for exp in m.exponents if exp) <= 1)
        dvars = [DecisionVariable(f"{name}[{mono.to_string(variables)}]")
                 for mono in basis]
        for dvar in dvars:
            self._decision_variables[dvar.uid] = dvar
        self._invalidate()
        return ParametricPolynomial.from_basis(variables, basis, dvars)

    def new_sos_polynomial(
        self,
        variables: VariableVector,
        degree: int,
        name: Optional[str] = None,
        min_degree: int = 0,
        cone: Optional[str] = None,
        diagonal_only: bool = False,
    ) -> ParametricPolynomial:
        """A polynomial template constrained to be SOS.

        ``min_degree = 2`` drops constant and linear monomials, producing an
        SOS polynomial that vanishes at the origin (useful for Lyapunov
        certificates and S-procedure multipliers that must not shift the
        equilibrium).  ``diagonal_only`` restricts the template to
        ``1, x_i^2, x_i^4, ...`` — a separable SOS multiplier that keeps the
        product's correlative-sparsity graph sparse (see
        :meth:`new_polynomial_variable`).
        """
        name = name or self._fresh_name("sigma")
        poly = self.new_polynomial_variable(variables, degree, name=name,
                                            min_degree=min_degree,
                                            diagonal_only=diagonal_only)
        self.add_sos_constraint(poly, name=f"{name}_sos", cone=cone)
        return poly

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def _register_expression_variables(self, expr: ParametricPolynomial) -> None:
        for dvar in expr.decision_variables():
            self._decision_variables.setdefault(dvar.uid, dvar)

    def add_sos_constraint(self, expression: PolyExpr,
                           name: Optional[str] = None,
                           cone: Optional[str] = None,
                           cone_options: Optional[Dict[str, object]] = None
                           ) -> SOSConstraint:
        """Require ``expression`` to be a sum of squares.

        ``cone`` optionally overrides the program's :attr:`default_cone` for
        this constraint (``"chordal"`` splits the Gram block along its
        correlative sparsity cliques).  ``cone_options``
        forwards extra lowering knobs, e.g. ``merge_size``/``merge_overlap``
        for the chordal clique merge.
        """
        expr = ParametricPolynomial.coerce(expression)
        name = name or self._fresh_name("sos")
        if cone is not None:
            cone = normalize_gram_cone(cone)
        degree = expr.degree
        # Odd-degree expressions are allowed: the Gram basis is rounded up and the
        # coefficient-matching equalities force the top odd-degree coefficients into
        # a consistent (possibly zero) configuration.  A *numeric* odd-degree
        # polynomial can never be SOS, so reject that case outright.
        if degree % 2 == 1 and expr.is_numeric():
            raise SOSProgramError(
                f"SOS constraint {name!r} is a fixed polynomial of odd degree {degree}; "
                "an odd-degree polynomial can never be a sum of squares"
            )
        basis = gram_basis_for_degree(len(expr.variables), degree)
        constraint = SOSConstraint(
            name=name, expression=expr, basis=basis, cone=cone,
            cone_options=tuple(sorted((cone_options or {}).items())))
        self._register_expression_variables(expr)
        self._sos_constraints.append(constraint)
        self._invalidate()
        return constraint

    def add_equality_constraint(self, expression: PolyExpr,
                                name: Optional[str] = None) -> EqualityConstraint:
        """Require ``expression ≡ 0`` as a polynomial identity."""
        expr = ParametricPolynomial.coerce(expression)
        name = name or self._fresh_name("eq")
        constraint = EqualityConstraint(name=name, expression=expr)
        self._register_expression_variables(expr)
        self._equality_constraints.append(constraint)
        self._invalidate()
        return constraint

    def add_scalar_constraint(self, expression: ScalarExpr, sense: str = ">=",
                              name: Optional[str] = None) -> ScalarConstraint:
        """Scalar affine constraint ``expression >= 0`` or ``expression == 0``."""
        if sense not in (">=", "=="):
            raise SOSProgramError(f"unsupported scalar constraint sense {sense!r}")
        expr = LinExpr.coerce(expression)
        name = name or self._fresh_name("lin")
        constraint = ScalarConstraint(name=name, expression=expr, sense=sense)
        for dvar in expr.coeffs:
            self._decision_variables.setdefault(dvar.uid, dvar)
        self._scalar_constraints.append(constraint)
        self._invalidate()
        return constraint

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    def minimize(self, objective: ScalarExpr) -> None:
        self._objective = LinExpr.coerce(objective)
        self._objective_sense = "min"
        for dvar in self._objective.coeffs:
            self._decision_variables.setdefault(dvar.uid, dvar)
        self._invalidate()

    def maximize(self, objective: ScalarExpr) -> None:
        self._objective = LinExpr.coerce(objective)
        self._objective_sense = "max"
        for dvar in self._objective.coeffs:
            self._decision_variables.setdefault(dvar.uid, dvar)
        self._invalidate()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _decision_order(self) -> List[DecisionVariable]:
        return [self._decision_variables[uid] for uid in sorted(self._decision_variables)]

    def compile(self, context: Optional[SolveContext] = None
                ) -> Tuple[ConicProblemBuilder, Dict[DecisionVariable, Tuple[int, int]],
                           List[Tuple[SOSConstraint, GramBlockHandle]]]:
        """Build the conic problem.

        Returns the builder, a map from decision variable to (block id, local
        index), and the list of (SOS constraint, Gram block handle) pairs.
        The result is memoised: recompiling an unmodified program is free,
        and the per-(basis, support) Gram row plans are cached process-wide
        so that structurally identical programs (parameter sweeps, bisection
        loops) only refill numeric coefficients.  ``context`` overrides which
        context the compile event is counted on for this call (used by
        :meth:`solve` so a per-call context override governs the whole
        compile-and-solve, not just the solve).
        """
        counting = context or self.context or default_context()
        if self._compiled is not None:
            counting.record_compile_event("memoised")
            return self._compiled
        counting.record_compile_event("full")
        builder = ConicProblemBuilder()
        decision_order = self._decision_order()
        var_location: Dict[DecisionVariable, Tuple[int, int]] = {}
        free_id = -1
        if decision_order:
            free_id, _ = builder.add_free_block(len(decision_order), name="decision")
            for local, dvar in enumerate(decision_order):
                var_location[dvar] = (free_id, local)

        sos_blocks: List[Tuple[SOSConstraint, GramBlockHandle]] = []
        for constraint in self._sos_constraints:
            cone = constraint.cone or self._default_cone
            cone_options = dict(constraint.cone_options)
            if cone == "chordal":
                # The chordal lowering needs the constraint's correlative-
                # sparsity graph: which Gram entries can be nonzero, read off
                # the basis products landing in the expression's support.
                cone_options["sparsity"] = _gram_sparsity_edges(
                    constraint.basis, constraint.expression.monomials())
            handle = builder.add_gram_block(
                constraint.gram_order, cone=cone, name=constraint.name,
                **cone_options)
            sos_blocks.append((constraint, handle))
        # The cone layout enters the problem fingerprint, so distinct
        # cones of the same program never share a cache entry (the
        # chordal tag includes the clique layout itself, keeping different
        # sparsity patterns — and hence different lowerings — distinct too).
        builder.set_layout(",".join(handle.layout_tag
                                    for _, handle in sos_blocks))

        # Coefficient matching for SOS constraints:
        #   sum_{(i,j): z_i z_j = m} Q_ij  ==  c_m(d)      for every monomial m.
        # The Gram side comes from the cached COO row plan lowered through
        # the constraint's Gram-cone handle; only the numeric right-hand
        # sides and decision-variable coefficients are filled here.
        for constraint, handle in sos_blocks:
            expr = constraint.expression
            support = expr.monomials()
            plan = _sos_row_plan(constraint.basis, support)
            rows = np.fromiter((plan.row_of[mono] for mono in support),
                               dtype=np.int64, count=len(support))
            constants = expr.constant_array
            matrix = expr.coefficient_matrix
            rhs = np.zeros(plan.num_rows)
            rhs[rows] = constants
            # A support row without decision coefficients that the Gram
            # expansion cannot reach must have a zero coefficient; it is
            # dropped from the equality system.
            keep = np.ones(plan.num_rows, dtype=bool)
            fixed = ~(matrix != 0.0).any(axis=1) & ~plan.is_product_row[rows]
            if fixed.any():
                bad = np.flatnonzero(fixed & (np.abs(constants) > 1e-12))
                if bad.size:
                    k = int(bad[0])
                    raise SOSProgramError(
                        f"SOS constraint {constraint.name!r}: monomial "
                        f"{support[k].to_string(expr.variables)} has fixed coefficient "
                        f"{float(constants[k])} but cannot be produced by the Gram basis"
                    )
                keep[rows[fixed]] = False
            # Decision coefficients enter row by row, each row's variables in
            # uid order (the column order of the coefficient matrix).
            term, column = np.nonzero(matrix)
            free_rows = rows[term]
            free_locals = np.array([var_location[dvar][1]
                                    for dvar in expr.decision_variables()],
                                   dtype=np.int64)[column]
            free_values = -matrix[term, column]
            if keep.all():
                row_map = None
                batch_rhs = rhs
                pair_rows = plan.pair_rows
            else:
                row_map = np.cumsum(keep) - 1
                batch_rhs = rhs[keep]
                pair_rows = row_map[plan.pair_rows]
            triplets = handle.entry_triplets(pair_rows, plan.pair_i,
                                             plan.pair_j, plan.pair_weight)
            if free_rows.size:
                if row_map is not None:
                    free_rows = row_map[free_rows]
                triplets.append((free_id, free_rows, free_locals, free_values))
            builder.add_equality_rows(batch_rhs, triplets)

        # Polynomial equality constraints: every coefficient must vanish.
        for constraint in self._equality_constraints:
            expr = constraint.expression
            locations = [var_location[dvar] for dvar in expr.decision_variables()]
            for mono, row, constant in zip(expr.monomials(),
                                           expr.coefficient_matrix.tolist(),
                                           expr.constant_array.tolist()):
                entries = {loc: a for loc, a in zip(locations, row) if a != 0.0}
                rhs = -constant
                if not entries:
                    if abs(rhs) > 1e-12:
                        raise SOSProgramError(
                            f"equality constraint {constraint.name!r} forces "
                            f"{-rhs} == 0 for monomial {mono.to_string(expr.variables)}"
                        )
                    continue
                builder.add_equality_row(entries, rhs)

        # Scalar constraints.
        slack_counter = 0
        for constraint in self._scalar_constraints:
            expr = constraint.expression
            entries = {}
            for dvar, a in expr.coeffs.items():
                loc = var_location[dvar]
                entries[loc] = entries.get(loc, 0.0) + a
            rhs = -expr.constant
            if constraint.sense == "==":
                if not entries:
                    if abs(rhs) > 1e-12:
                        raise SOSProgramError(
                            f"scalar equality {constraint.name!r} is trivially false")
                    continue
                builder.add_equality_row(entries, rhs)
            else:  # expr >= 0  <=>  expr - s = 0, s >= 0
                slack_id, _ = builder.add_nonneg_block(1, name=f"slack_{slack_counter}")
                slack_counter += 1
                entries[(slack_id, 0)] = -1.0
                builder.add_equality_row(entries, rhs)

        # Objective.
        if self._objective is not None:
            sign = 1.0 if self._objective_sense == "min" else -1.0
            for dvar, a in self._objective.coeffs.items():
                block_id, local = var_location[dvar]
                builder.add_cost(block_id, local, sign * a)

        self._compiled = (builder, var_location, sos_blocks)
        return self._compiled

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------
    def solve(self, warm_start: Optional[object] = None,
              context: Optional[SolveContext] = None,
              **solver_settings) -> SOSSolution:
        """Compile (memoised) and solve the program.

        ``warm_start`` accepts the ``warm_start_data`` dict of a previous
        solve on a structurally identical program (e.g. the previous level of
        a bisection loop).
        ``context`` overrides the program's own solve context for this call
        (both the compile accounting and the solve itself).
        """
        effective = context or self.context
        compile_start = time.perf_counter()
        builder, var_location, sos_blocks = self.compile(context=effective)
        problem = builder.build()
        compile_time = time.perf_counter() - compile_start

        result = solve_conic_problem(problem, warm_start=warm_start,
                                     context=effective,
                                     **solver_settings)
        return self.interpret_result(result, compile_time=compile_time,
                                     context=effective)

    def interpret_result(self, result: SolverResult, compile_time: float = 0.0,
                         with_certificates: bool = True,
                         context: Optional[SolveContext] = None) -> SOSSolution:
        """Turn a raw conic :class:`SolverResult` into an :class:`SOSSolution`.

        Used by :meth:`solve` and by the parametric-solve layer, where the
        conic problem was produced by ``bind(theta)`` on this program's
        structure and solved externally (possibly as part of a batch).
        ``with_certificates=False`` skips the Gram-certificate extraction —
        appropriate when the bound problem's numeric expression differs from
        this template's, so reconstruction errors would be computed against
        the wrong right-hand sides.  ``context`` governs the (memoised)
        compile accounting, as in :meth:`compile`.
        """
        builder, var_location, sos_blocks = self.compile(context=context)

        assignment: Dict[DecisionVariable, float] = {}
        certificates: Dict[str, SOSCertificate] = {}
        objective = float("nan")
        if result.x is not None:
            for dvar, (block_id, local) in var_location.items():
                assignment[dvar] = float(builder.block_value(block_id, result.x)[local])
            if with_certificates:
                for constraint, handle in sos_blocks:
                    gram = handle.matrix(builder, result.x)
                    poly = constraint.expression.instantiate(assignment)
                    from ..polynomial.gram import gram_to_polynomial

                    reconstructed = gram_to_polynomial(poly.variables, constraint.basis, gram)
                    eigenvalues = np.linalg.eigvalsh(0.5 * (gram + gram.T)) if gram.size else np.array([0.0])
                    certificates[constraint.name] = SOSCertificate(
                        name=constraint.name,
                        polynomial=poly,
                        gram=gram,
                        basis=constraint.basis,
                        min_eigenvalue=float(eigenvalues.min()),
                        reconstruction_error=(poly - reconstructed).max_abs_coefficient(),
                        cone=handle.cone,
                        structure_margin=handle.structure_margin(builder, result.x),
                    )
            if self._objective is not None and assignment:
                objective = self._objective.evaluate(assignment)

        return SOSSolution(
            status=result.status,
            assignment=assignment,
            certificates=certificates,
            objective=objective,
            solver_result=result,
            compile_time=compile_time,
            solve_time=result.solve_time,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_sos_constraints(self) -> int:
        return len(self._sos_constraints)

    @property
    def num_equality_constraints(self) -> int:
        return len(self._equality_constraints)

    @property
    def num_decision_variables(self) -> int:
        return len(self._decision_variables)

    def describe(self) -> str:
        gram_orders = [c.gram_order for c in self._sos_constraints]
        return (
            f"SOSProgram({self.name!r}: {self.num_decision_variables} scalars, "
            f"{self.num_sos_constraints} SOS constraints "
            f"(Gram orders {gram_orders}, cone {self._default_cone}), "
            f"{self.num_equality_constraints} polynomial equalities, "
            f"{len(self._scalar_constraints)} scalar constraints)"
        )
