"""Batched ADMM engine: many structurally identical conic SDPs in one loop.

The verification pipeline produces *families* of near-identical problems —
every bisection level of a level-curve maximisation, every domain inequality
of a mode, every point of a parameter sweep.  Solving them one at a time pays
the per-iteration Python and LAPACK dispatch overhead ``B`` times over.

:class:`BatchADMMSolver` advances all ``B`` problems through the same
operator-splitting iteration as :class:`~repro.sdp.admm.ADMMConicSolver`:

* the iterates live in ``(B, n)`` row-contiguous arrays, one problem per row;
* the x-update projects each active row onto its own ``{Ax = b}`` through
  the m x m Schur matrix ``A A^T + rho*reg I`` of its ``(A, rho)`` pair:
  problems whose presolved ``A`` is bitwise equal form one group, each
  distinct (group, ``rho``) pair is factorised once with the matrix
  :class:`ADMMConicSolver` factorises, and the rows of one pair are solved
  as one multi-RHS solve between two sparse products with ``A``.  A factor
  is kept only while an active problem still uses it, and a factorisation
  failure ends just the problems of that pair with ``NUMERICAL_ERROR``;
* the z-update projects all PSD blocks of all problems through one stacked
  ``eigh`` (:func:`~repro.sdp.cones.project_onto_cone_many`);
* residuals, tolerances, stall detection and adaptive-``rho`` updates are
  vectorised per problem, and finished problems leave the active set while
  their state rows keep their last iterate.

There is **no cross-problem coupling**: each problem runs exactly the
iteration of a standalone :class:`ADMMConicSolver.solve` (same Schur matrix,
same ``splu``), so per-problem iterates, statuses and iteration counts match
the serial solver bit for bit.  A problem whose data holds a NaN or inf ends
with ``NUMERICAL_ERROR`` before the loop instead of poisoning the stacked
``eigh``.  Batches whose members differ in cone dimensions fall back to
serial solves.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .admm import (
    HISTORY_STRIDE,
    INFEASIBILITY_INTERVAL,
    INFEASIBILITY_MIN_ITERATION,
    INFEASIBILITY_REL_CHANGE,
    INFEASIBILITY_STREAK,
    NON_FINITE_REASON,
    OVER_RELAXATION,
    RHO_UPDATE_INTERVAL,
    STALL_IMPROVEMENT,
    ADMMConicSolver,
    ADMMSettings,
    WarmStart,
    has_finite_data,
    project_affine,
    schur_matrix,
    unpack_warm_start,
)
from .backend import NUMPY_BACKEND
from .cones import project_onto_cone_many
from .problem import ConicProblem
from .result import SolveHistory, SolverResult, SolverStatus
from .scaling import presolve


def row_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a ``(batch, n)`` block."""
    # einsum: one fused multiply-reduce pass, less dispatch than
    # norm(axis=1) and no (batch, n) temporary.
    return np.sqrt(np.einsum("ij,ij->i", block, block))


class BatchADMMSolver:
    """Solve a batch of structurally identical conic problems in one ADMM loop."""

    def __init__(self, settings: Optional[ADMMSettings] = None):
        self.settings = settings or ADMMSettings()

    def _solve_serial(self, problems: Sequence[ConicProblem],
                      warm_starts: Sequence[Optional[WarmStart]]) -> List[SolverResult]:
        solver = ADMMConicSolver(self.settings)
        return [solver.solve(p, warm_start=ws) for p, ws in zip(problems, warm_starts)]

    # ------------------------------------------------------------------
    def solve_batch(self, problems: Sequence[ConicProblem],
                    warm_starts: Optional[Sequence[Optional[WarmStart]]] = None,
                    ) -> List[SolverResult]:
        """Solve ``problems`` together; returns one :class:`SolverResult` each.

        All problems must share cone dimensions; otherwise the batch
        degrades to serial solves with identical semantics.
        """
        start = time.perf_counter()
        problems = list(problems)
        if not problems:
            return []
        if warm_starts is None:
            warm_starts = [None] * len(problems)
        warm_starts = list(warm_starts)
        if len(warm_starts) != len(problems):
            raise ValueError("warm_starts must align with problems")

        settings = self.settings
        dims = problems[0].dims
        if any(p.dims != dims for p in problems[1:]):
            return self._solve_serial(problems, warm_starts)

        results: List[Optional[SolverResult]] = [None] * len(problems)
        prepped: List[Tuple[int, ConicProblem, ConicProblem, object]] = []
        for i, problem in enumerate(problems):
            try:
                scaled, scaling = presolve(problem)
            except ValueError as exc:
                results[i] = SolverResult(
                    status=SolverStatus.INFEASIBLE_SUSPECTED,
                    info={"reason": str(exc)},
                    solve_time=time.perf_counter() - start,
                )
                continue
            if not has_finite_data(scaled):
                results[i] = SolverResult(
                    status=SolverStatus.NUMERICAL_ERROR,
                    info={"reason": NON_FINITE_REASON},
                    solve_time=time.perf_counter() - start,
                )
                continue
            prepped.append((i, problem, scaled, scaling))
        if not prepped:
            return results  # type: ignore[return-value]

        n = dims.total
        batch = len(prepped)
        # Problems whose presolved A is bitwise equal (a sweep in b, or a
        # parametric family whose parameter enters b only) form one group
        # and share its Schur factors.
        group_of = np.zeros(batch, dtype=np.int64)
        group_keys: Dict[tuple, int] = {}
        unique_A: List[sp.csc_matrix] = []
        for col, (_, _, scaled, _) in enumerate(prepped):
            A = scaled.A.tocsc()
            key = (A.shape, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes())
            group = group_keys.setdefault(key, len(unique_A))
            if group == len(unique_A):
                unique_A.append(A)
            group_of[col] = group
        transposes = [A.T for A in unique_A]
        grams = [(A @ A_T).tocsc() for A, A_T in zip(unique_A, transposes)]

        # Row-contiguous (B, n) state; each problem is one row.
        C = np.zeros((batch, n))
        X = np.zeros((batch, n))
        Z = np.zeros((batch, n))
        U = np.zeros((batch, n))
        b_rows = [scaled.b for _, _, scaled, _ in prepped]
        warm_flags = np.zeros(batch, dtype=bool)
        for col, (i, _, scaled, _) in enumerate(prepped):
            C[col] = scaled.c
            initial = unpack_warm_start(warm_starts[i], n)
            if initial is not None:
                X[col], Z[col], U[col] = initial
                warm_flags[col] = True

        rho = np.full(batch, float(settings.rho))
        alpha = OVER_RELAXATION
        sqrt_n = float(np.sqrt(n))
        best_primal = np.full(batch, np.inf)
        best_primal_at = np.zeros(batch, dtype=np.int64)
        primal_snapshot = np.full(batch, np.inf)
        frozen_streak = np.zeros(batch, dtype=np.int64)
        last_dual = np.full(batch, np.nan)
        statuses: List[SolverStatus] = [SolverStatus.MAX_ITERATIONS] * batch
        final_iteration = np.full(batch, settings.max_iterations, dtype=np.int64)
        histories = [SolveHistory() for _ in range(batch)]
        numerical_failures: Dict[int, str] = {}

        # One Schur factor per (A group, rho) pair that an active problem uses:
        # the matrix ADMMConicSolver.solve factorises for that problem at that
        # rho.  A factor leaves the cache once no active problem uses it.
        factors: Dict[Tuple[int, float], object] = {}

        def plan_epoch(active: np.ndarray, iteration: int):
            """Factor the active set's (A group, rho) pairs.

            Returns the pairs as ``(factor, A, A.T, positions in active,
            (m, k) right-hand sides b)`` plus the columns whose factorisation
            failed (they end ``NUMERICAL_ERROR`` at ``iteration``, like the
            serial solver).
            """
            wanted: Dict[Tuple[int, float], List[int]] = {}
            for position, col in enumerate(active):
                wanted.setdefault((int(group_of[col]), float(rho[col])), []).append(position)
            for key in [key for key in factors if key not in wanted]:
                del factors[key]
            pairs, failed = [], []
            for key, positions in wanted.items():
                cols = active[positions]
                group, rho_value = key
                lu = factors.get(key)
                if lu is None:
                    try:
                        lu = NUMPY_BACKEND.kkt_factor(schur_matrix(grams[group], rho_value))
                    except RuntimeError as exc:
                        for col in cols:
                            numerical_failures[int(col)] = f"KKT factorization failed: {exc}"
                            statuses[col] = SolverStatus.NUMERICAL_ERROR
                            final_iteration[col] = iteration
                        failed.extend(cols)
                        continue
                    factors[key] = lu
                b_cols = np.stack([b_rows[col] for col in cols], axis=1)
                pairs.append((lu, unique_A[group], transposes[group],
                              np.asarray(positions), b_cols))
            return pairs, failed

        # Every termination criterion is checked every iteration; finished
        # problems leave the active index but their state rows stay in place
        # (their last iterate is the final answer).
        active = np.arange(batch)
        epoch_key: Optional[tuple] = None
        pairs: list = []
        C_act = C_over_rho = None

        for iteration in range(1, settings.max_iterations + 1):
            # The factors change only when the active set or a rho does.
            while active.size and epoch_key != (active.tobytes(), rho[active].tobytes()):
                pairs, failed = plan_epoch(active, iteration)
                if failed:
                    active = active[~np.isin(active, failed)]
                    continue
                epoch_key = (active.tobytes(), rho[active].tobytes())
                C_act = C[active]
                C_over_rho = C_act / rho[active][:, None]
            if active.size == 0:
                break

            # x-update: each active row projected through its own (A group,
            # rho) factor, one multi-RHS solve per pair.
            W = Z[active] - U[active] - C_over_rho
            x_act = np.empty_like(W)
            for lu, A, A_T, positions, b_cols in pairs:
                x_act[positions] = project_affine(lu, A, A_T, W[positions].T, b_cols).T
            X[active] = x_act

            act = active
            z_prev = Z[act]
            x_relaxed = alpha * x_act + (1.0 - alpha) * z_prev
            z_new = project_onto_cone_many(x_relaxed + U[act], dims)
            Z[act] = z_new
            U[act] = U[act] + x_relaxed - z_new

            primal = row_norms(x_act - z_new)
            dual = rho[act] * row_norms(z_new - z_prev)
            scale_primal = np.maximum(np.maximum(row_norms(x_act), row_norms(z_new)), 1.0)
            scale_dual = np.maximum(rho[act] * row_norms(U[act]), 1.0)
            eps_primal = settings.eps_abs * sqrt_n + settings.eps_rel * scale_primal
            eps_dual = settings.eps_abs * sqrt_n + settings.eps_rel * scale_dual
            last_dual[act] = dual

            if iteration % HISTORY_STRIDE == 0 or iteration == 1:
                objectives = np.einsum("ij,ij->i", C_act, x_act)
                for position, col in enumerate(act):
                    histories[col].record(primal[position], dual[position],
                                          float(objectives[position]))

            improved = primal < best_primal[act] * STALL_IMPROVEMENT
            best_primal_at[act[improved]] = iteration
            best_primal[act] = np.minimum(best_primal[act], primal)

            converged = (primal <= eps_primal) & (dual <= eps_dual)

            # Early infeasibility detection (mirrors the serial solver): the
            # primal residual locked onto a plateau far above feasibility
            # with the dual residual below it.
            frozen_fire = np.zeros(act.shape[0], dtype=bool)
            if settings.infeasibility_detection and \
                    iteration % INFEASIBILITY_INTERVAL == 0:
                if iteration >= INFEASIBILITY_MIN_ITERATION:
                    frozen = (primal > 100.0 * eps_primal) & (dual < primal) \
                        & (np.abs(primal - primal_snapshot[act])
                           <= INFEASIBILITY_REL_CHANGE * primal)
                    frozen_streak[act] = np.where(frozen, frozen_streak[act] + 1, 0)
                else:
                    frozen_streak[act] = 0
                primal_snapshot[act] = primal
                frozen_fire = (~converged) & \
                    (frozen_streak[act] >= INFEASIBILITY_STREAK)

            stalled = (~converged) & (~frozen_fire) \
                & ((iteration - best_primal_at[act]) > settings.stall_window) \
                & (primal > 100.0 * eps_primal)
            for col in act[converged]:
                statuses[col] = SolverStatus.OPTIMAL
                final_iteration[col] = iteration
            for col in act[frozen_fire | stalled]:
                statuses[col] = SolverStatus.INFEASIBLE_SUSPECTED
                final_iteration[col] = iteration
            keep = ~(converged | frozen_fire | stalled)
            active = act[keep]

            if iteration % RHO_UPDATE_INTERVAL == 0 and active.size:
                primal_keep = primal[keep]
                dual_keep = dual[keep]
                raise_rho = (primal_keep > 10.0 * dual_keep) & (rho[active] < 1e6)
                lower_rho = (~raise_rho) & (dual_keep > 10.0 * primal_keep) \
                    & (rho[active] > 1e-6)
                cols_up = active[raise_rho]
                if cols_up.size:
                    rho[cols_up] *= 2.0
                    U[cols_up] = U[cols_up] / 2.0
                cols_down = active[lower_rho]
                if cols_down.size:
                    rho[cols_down] /= 2.0
                    U[cols_down] = U[cols_down] * 2.0

        elapsed = time.perf_counter() - start
        for col, (i, original, _, scaling) in enumerate(prepped):
            if col in numerical_failures:
                results[i] = SolverResult(
                    status=SolverStatus.NUMERICAL_ERROR,
                    info={"reason": numerical_failures[col]},
                    solve_time=elapsed,
                )
                continue
            candidate = Z[col].copy()
            status = statuses[col]
            if status == SolverStatus.OPTIMAL and np.allclose(original.c, 0.0):
                status = SolverStatus.FEASIBLE
            results[i] = SolverResult(
                status=status,
                x=candidate,
                objective=original.objective_value(candidate),
                primal_residual=float(np.linalg.norm(X[col] - Z[col])),
                dual_residual=float(last_dual[col]),
                equality_residual=original.equality_residual(candidate),
                cone_violation=original.cone_violation(candidate),
                iterations=int(final_iteration[col]),
                solve_time=elapsed,
                info={
                    "rho_final": float(rho[col]),
                    "history": histories[col],
                    "scaled": scaling is not None,
                    "warm_started": bool(warm_flags[col]),
                    "warm_start_data": {"x": X[col].copy(), "z": candidate.copy(),
                                        "u": U[col].copy()},
                    "batch_size": batch,
                    "batch_index": col,
                    "batch_wall_time": elapsed,
                },
            )
        return results  # type: ignore[return-value]
