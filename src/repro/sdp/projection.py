"""Alternating-projection backend for pure conic *feasibility* problems.

Many of the SOS programs in the verification pipeline are feasibility
problems (find any Gram matrices satisfying the coefficient-matching
equalities).  For those, plain alternating projections between the affine set
``{x : A x = b}`` and the cone ``K`` is a simple, robust alternative to ADMM
and serves as an ablation baseline (``benchmarks/test_ablation_solver_backend``).

The affine projection reuses a cached factorisation of ``A A^T`` (with a tiny
regularisation absorbing redundant rows).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .admm import WarmStart, unpack_warm_start
from .backend import NUMPY_BACKEND
from .cones import project_onto_cone
from .problem import ConicProblem
from .result import SolverResult, SolverStatus
from .scaling import presolve


@dataclass
class ProjectionSettings:
    max_iterations: int = 20000
    tolerance: float = 1e-8
    regularization: float = 1e-10
    scale_problem: bool = True
    stall_window: int = 2000
    verbose: bool = False


class AlternatingProjectionSolver:
    """Von Neumann alternating projections onto ``{Ax=b}`` and ``K``.

    Ignores the objective (raises if a nonzero cost vector is supplied) —
    use the ADMM backend for optimisation problems.
    """

    def __init__(self, settings: Optional[ProjectionSettings] = None):
        self.settings = settings or ProjectionSettings()

    def solve(self, problem: ConicProblem,
              warm_start: Optional[WarmStart] = None) -> SolverResult:
        start = time.perf_counter()
        if np.any(problem.c != 0.0):
            raise ValueError(
                "AlternatingProjectionSolver only handles feasibility problems "
                "(zero cost vector); use the ADMM backend for optimisation"
            )
        original = problem
        try:
            problem, _ = presolve(problem, scale=self.settings.scale_problem)
        except ValueError as exc:
            return SolverResult(
                status=SolverStatus.INFEASIBLE_SUSPECTED,
                info={"reason": str(exc)},
                solve_time=time.perf_counter() - start,
            )

        A = problem.A.tocsr()
        b = problem.b
        n = problem.num_variables
        m = problem.num_constraints
        dims = problem.dims

        if m > 0:
            gram = (A @ A.T + self.settings.regularization * sp.identity(m)).tocsc()
            gram_lu = NUMPY_BACKEND.kkt_factor(gram)
            AT = A.T.tocsr()

            def project_affine(point):
                residual = A @ point - b
                correction = AT @ gram_lu.solve(residual)
                return point - correction
        else:
            def project_affine(point):
                return point

        initial = unpack_warm_start(warm_start, n)
        x = initial[1] if initial is not None else np.zeros(n)
        best_gap = np.inf
        best_gap_at = 0
        status = SolverStatus.MAX_ITERATIONS
        iteration = 0
        tolerance = self.settings.tolerance * np.sqrt(max(n, 1))
        for iteration in range(1, self.settings.max_iterations + 1):
            x_affine = project_affine(x)
            x_cone = project_onto_cone(x_affine, dims)
            gap = float(np.linalg.norm(x_affine - x_cone))
            x = x_cone
            if gap < best_gap * 0.99:
                best_gap = gap
                best_gap_at = iteration
            if gap <= tolerance:
                status = SolverStatus.FEASIBLE
                break
            if iteration - best_gap_at > self.settings.stall_window:
                status = SolverStatus.INFEASIBLE_SUSPECTED
                break

        equality_residual = original.equality_residual(x)
        violation = original.cone_violation(x)
        return SolverResult(
            status=status,
            x=x,
            objective=original.objective_value(x),
            primal_residual=float("nan"),
            dual_residual=float("nan"),
            equality_residual=equality_residual,
            cone_violation=violation,
            iterations=iteration,
            solve_time=time.perf_counter() - start,
            info={
                "backend": "alternating_projection",
                "warm_started": initial is not None,
                "warm_start_data": {"x": x.copy(), "z": x.copy(),
                                    "u": np.zeros(n)},
            },
        )
