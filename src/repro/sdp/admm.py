"""ADMM (operator-splitting) solver for conic SDPs.

This is the pipeline's conic solver.  The algorithm is the classic consensus split

    minimize  c^T x + I_{Ax=b}(x) + I_K(z)     subject to  x = z

with iterations

    x^{k+1} = argmin_x  c^T x + (rho/2) ||x - (z^k - u^k)||^2   s.t.  A x = b
    z^{k+1} = Proj_K(x^{k+1} + u^k)
    u^{k+1} = u^k + x^{k+1} - z^{k+1}

The x-update is the Euclidean projection of ``w = z - u - c/rho`` onto the
affine set ``{Ax = b}``:

    x = w - A^T (A A^T + rho*reg I)^{-1} (A w - b)

This is the Schur complement of the x-update's KKT system
``[[rho I, A^T], [A, -reg I]]`` (O'Donoghue et al., 2016), so only the m x m
matrix ``A A^T + rho*reg I`` is factorised (sparse LU, once per ``rho``);
the small regularisation ``reg`` absorbs redundant equality rows.  This is
the same splitting used by SCS-style solvers, specialised to equality
constraints plus cone membership, which is exactly the shape of SOS
feasibility problems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .backend import NUMPY_BACKEND
from .cones import project_onto_cone
from .problem import ConicProblem
from .result import SolveHistory, SolverResult, SolverStatus
from .scaling import presolve

WarmStart = Union[Dict[str, np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]


def unpack_warm_start(warm_start: Optional[WarmStart],
                      num_variables: int) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Normalise a warm start into ``(x, z, u)`` arrays, or ``None``.

    Accepts a dict with ``x``/``z``/``u`` keys (the ``warm_start_data`` dict
    attached to :class:`SolverResult`), a plain 3-tuple, or a previous
    :class:`SolverResult`.  Silently rejects starts whose dimension does not
    match the problem (a sequential solve with a different structure).
    """
    if warm_start is None:
        return None
    if isinstance(warm_start, SolverResult):
        warm_start = warm_start.info.get("warm_start_data")  # type: ignore[assignment]
        if warm_start is None:
            return None
    if isinstance(warm_start, dict):
        parts = (warm_start.get("x"), warm_start.get("z"), warm_start.get("u"))
    else:
        parts = tuple(warm_start)  # type: ignore[assignment]
        if len(parts) != 3:
            return None
    arrays = []
    for part in parts:
        if part is None:
            return None
        arr = np.asarray(part, dtype=float).ravel()
        if arr.shape[0] != num_variables:
            return None
        arrays.append(arr.copy())
    return arrays[0], arrays[1], arrays[2]


#: Diagonal regularisation of the x-update's KKT matrix, scaled by ``rho`` in
#: its Schur complement; also absorbs redundant equality rows.
KKT_REGULARIZATION = 1e-9
#: Iterations between adaptive-``rho`` updates.
RHO_UPDATE_INTERVAL = 100
#: Relative primal-residual improvement that resets the stall clock.
STALL_IMPROVEMENT = 0.9
#: Relaxation factor ``alpha`` blending the new x-iterate with the previous z.
OVER_RELAXATION = 1.6
#: Iterations between residual-history samples.
HISTORY_STRIDE = 25
#: Early infeasibility detection (SCS/OSQP-style divergence check): on an
#: infeasible instance the splitting converges to the positive distance
#: between the affine set and the cone, so the primal residual locks onto a
#: plateau far above the feasibility tolerance while the dual residual stays
#: below it.  A plateau stable to ``INFEASIBILITY_REL_CHANGE`` across
#: ``INFEASIBILITY_STREAK`` consecutive check windows (every
#: ``INFEASIBILITY_INTERVAL`` iterations from ``INFEASIBILITY_MIN_ITERATION``
#: on) fires thousands of iterations before the generic stall window — this
#: is what makes rejected levels cheap in bisection/K-section loops.
INFEASIBILITY_INTERVAL = 100
INFEASIBILITY_MIN_ITERATION = 300
INFEASIBILITY_REL_CHANGE = 1e-3
INFEASIBILITY_STREAK = 2


def schur_matrix(gram: sp.csc_matrix, rho: float) -> sp.csc_matrix:
    """The x-update's m x m matrix ``A A^T + rho*reg I`` from ``gram = A A^T``.

    The Schur complement of the KKT matrix ``[[rho I, A^T], [A, -reg I]]``
    scaled by ``rho``; keeping the regularisation proportional to ``rho``
    makes the projection exactly the KKT solve's.
    """
    shift = (rho * KKT_REGULARIZATION) * sp.identity(gram.shape[0], format="csc")
    return (gram + shift).tocsc()


def project_affine(factor, A: sp.csc_matrix, A_T: sp.csr_matrix, w: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """The x-update ``w - A^T (A A^T + rho*reg I)^{-1} (A w - b)``.

    ``factor`` is the factorised :func:`schur_matrix` of ``A`` at ``rho`` and
    ``A_T`` is ``A.T``, formed once by the caller (a sparse transpose costs
    more than the product).  ``w`` and ``b`` are vectors, or ``(n, k)`` and
    ``(m, k)`` column stacks solved as one multi-RHS solve.
    """
    return w - A_T @ factor.solve(A @ w - b)


#: Reason reported for a problem with a NaN or inf in ``c``, ``A`` or ``b``.
NON_FINITE_REASON = "problem data is not finite"


def has_finite_data(problem: ConicProblem) -> bool:
    """Whether ``c``, ``A`` and ``b`` of ``problem`` are all finite."""
    return bool(np.isfinite(problem.c).all() and np.isfinite(problem.b).all()
                and np.isfinite(problem.A.data).all())


@dataclass
class ADMMSettings:
    """Tuning knobs of the ADMM solver."""

    max_iterations: int = 20000
    rho: float = 1.0
    eps_abs: float = 1e-7
    eps_rel: float = 1e-6
    stall_window: int = 2500
    #: Plateau-based early infeasibility detection (see the module constants).
    infeasibility_detection: bool = True


class ADMMConicSolver:
    """Operator-splitting conic solver (free, nonneg and PSD cones)."""

    def __init__(self, settings: Optional[ADMMSettings] = None):
        self.settings = settings or ADMMSettings()

    # ------------------------------------------------------------------
    def solve(self, problem: ConicProblem,
              warm_start: Optional[WarmStart] = None) -> SolverResult:
        """Solve ``problem``; optionally warm-start ``(x, z, u)``.

        Warm starts come from the ``warm_start_data`` entry of a previous
        :class:`SolverResult` on a structurally identical problem (sequential
        level-set bisection queries, parameter sweeps).  Row equilibration
        only rescales the equality rows, so primal iterates transfer between
        scaled problems unchanged.
        """
        start = time.perf_counter()
        settings = self.settings
        original = problem
        try:
            problem, scaling = presolve(problem)
        except ValueError as exc:
            return SolverResult(
                status=SolverStatus.INFEASIBLE_SUSPECTED,
                info={"reason": str(exc)},
                solve_time=time.perf_counter() - start,
            )

        n = problem.num_variables
        dims = problem.dims
        c = problem.c
        A = problem.A.tocsc()
        b = problem.b

        def numerical_error(reason: str) -> SolverResult:
            return SolverResult(
                status=SolverStatus.NUMERICAL_ERROR,
                info={"reason": reason},
                solve_time=time.perf_counter() - start,
            )

        # A NaN or inf would reach the stacked eigh of the cone projection.
        if not has_finite_data(problem):
            return numerical_error(NON_FINITE_REASON)

        A_T = A.T
        rho = settings.rho
        c_over_rho = c / rho
        # The m x m Schur matrix is refactorised when rho changes.
        gram = (A @ A_T).tocsc()

        def factorize(current_rho: float):
            return NUMPY_BACKEND.kkt_factor(schur_matrix(gram, current_rho))

        try:
            lu = factorize(rho)
        except RuntimeError as exc:
            return numerical_error(f"KKT factorization failed: {exc}")

        initial = unpack_warm_start(warm_start, n)
        if initial is not None:
            x, z, u = initial
        else:
            x = np.zeros(n)
            z = np.zeros(n)
            u = np.zeros(n)
        history = SolveHistory()
        status = SolverStatus.MAX_ITERATIONS
        # Stall detection: track the best primal residual seen so far and when it
        # last improved by a meaningful relative amount.
        best_primal = np.inf
        best_primal_at = 0
        alpha = OVER_RELAXATION
        dual_residual = float("nan")
        primal_snapshot = np.inf
        frozen_streak = 0
        sqrt_n = float(np.sqrt(n))

        iteration = 0
        for iteration in range(1, settings.max_iterations + 1):
            x = project_affine(lu, A, A_T, z - u - c_over_rho, b)
            x_relaxed = alpha * x + (1.0 - alpha) * z
            z_prev = z
            z = project_onto_cone(x_relaxed + u, dims)
            u = u + x_relaxed - z

            primal_residual = float(np.linalg.norm(x - z))
            dual_residual = rho * float(np.linalg.norm(z - z_prev))
            scale_primal = max(float(np.linalg.norm(x)), float(np.linalg.norm(z)), 1.0)
            scale_dual = max(rho * float(np.linalg.norm(u)), 1.0)
            eps_primal = settings.eps_abs * sqrt_n + settings.eps_rel * scale_primal
            eps_dual = settings.eps_abs * sqrt_n + settings.eps_rel * scale_dual

            if iteration % HISTORY_STRIDE == 0 or iteration == 1:
                history.record(primal_residual, dual_residual, float(c @ x))

            if primal_residual < best_primal * STALL_IMPROVEMENT:
                best_primal_at = iteration
            best_primal = min(best_primal, primal_residual)

            if primal_residual <= eps_primal and dual_residual <= eps_dual:
                status = SolverStatus.OPTIMAL
                break

            # Early infeasibility detection: the primal residual locked onto a
            # plateau far above feasibility (with the dual residual below it)
            # means the split has converged to the affine-set/cone separation.
            if settings.infeasibility_detection and \
                    iteration % INFEASIBILITY_INTERVAL == 0:
                if iteration >= INFEASIBILITY_MIN_ITERATION:
                    frozen = primal_residual > 100 * eps_primal and \
                        dual_residual < primal_residual and \
                        abs(primal_residual - primal_snapshot) <= \
                        INFEASIBILITY_REL_CHANGE * primal_residual
                    frozen_streak = frozen_streak + 1 if frozen else 0
                else:
                    frozen_streak = 0
                primal_snapshot = primal_residual
                if frozen_streak >= INFEASIBILITY_STREAK:
                    status = SolverStatus.INFEASIBLE_SUSPECTED
                    break

            # Stall detection: the primal residual has not improved meaningfully
            # for a long stretch while remaining far from feasibility — for a
            # feasibility problem this strongly suggests infeasibility.
            if (iteration - best_primal_at) > settings.stall_window and \
                    primal_residual > 100 * eps_primal:
                status = SolverStatus.INFEASIBLE_SUSPECTED
                break

            if iteration % RHO_UPDATE_INTERVAL == 0:
                previous_rho = rho
                if primal_residual > 10.0 * dual_residual and rho < 1e6:
                    rho *= 2.0
                    u /= 2.0
                elif dual_residual > 10.0 * primal_residual and rho > 1e-6:
                    rho /= 2.0
                    u *= 2.0
                if rho != previous_rho:
                    c_over_rho = c / rho
                    try:
                        lu = factorize(rho)
                    except RuntimeError as exc:
                        # The batch solver ends such a member the same way.
                        return numerical_error(f"KKT factorization failed: {exc}")

        # Report the cone-feasible iterate z (it satisfies the cone exactly and
        # Ax = b approximately through x ≈ z).
        candidate = z
        equality_residual = original.equality_residual(candidate)
        violation = original.cone_violation(candidate)
        objective = original.objective_value(candidate)

        if status == SolverStatus.OPTIMAL and np.allclose(original.c, 0.0):
            status = SolverStatus.FEASIBLE

        solve_time = time.perf_counter() - start
        result = SolverResult(
            status=status,
            x=candidate,
            objective=objective,
            primal_residual=float(np.linalg.norm(x - z)),
            dual_residual=float(dual_residual),
            equality_residual=equality_residual,
            cone_violation=violation,
            iterations=iteration,
            solve_time=solve_time,
            info={
                "rho_final": rho,
                "history": history,
                "scaled": scaling is not None,
                "warm_started": initial is not None,
                "warm_start_data": {"x": x.copy(), "z": z.copy(),
                                    "u": u.copy()},
            },
        )
        return result
