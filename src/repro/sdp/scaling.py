"""Problem equilibration for the conic solver.

Badly scaled coefficient matrices (which SOS coefficient matching produces
readily when the underlying dynamics are not normalised) slow the ADMM
solver down dramatically.  We apply row equilibration to the equality
constraints — this never changes the feasible set or the cone — plus a scalar
normalisation of the cost vector.

:func:`presolve` fuses zero-row elimination and equilibration into a single
pass over one CSR copy of ``A`` (one row-norm computation, one data-array
scale), which is what both ADMM loops call; :func:`drop_zero_rows` and
:func:`equilibrate` remain available as standalone transformations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .problem import ConicProblem


@dataclass
class ScalingData:
    """Diagonal row scaling ``D`` and cost scale ``sigma`` applied to a problem."""

    row_scale: np.ndarray
    cost_scale: float


def row_inf_norms(A: sp.spmatrix) -> np.ndarray:
    """Per-row infinity norms of a sparse matrix (no CSC/dense round-trips).

    Shared by zero-row detection and row equilibration: one pass over the CSR
    data array with ``np.maximum.reduceat`` instead of two ``abs(A).max(axis=1)``
    dense-matrix detours.
    """
    A = A if sp.isspmatrix_csr(A) else A.tocsr()
    m = A.shape[0]
    norms = np.zeros(m)
    if m == 0 or A.nnz == 0:
        return norms
    counts = np.diff(A.indptr)
    nonempty = counts > 0
    norms[nonempty] = np.maximum.reduceat(np.abs(A.data), A.indptr[:-1][nonempty])
    return norms


def column_inf_norms(A: sp.spmatrix) -> np.ndarray:
    """Per-column infinity norms of a sparse matrix, straight off CSR data.

    The column counterpart of :func:`row_inf_norms`: a single unbuffered
    ``np.maximum.at`` scatter over ``(|data|, indices)``.  No CSC conversion,
    and — like every norm helper in this module — no dense ``(m, n)``
    materialisation, which matters once SOS coefficient matching produces
    thousands of equality rows.
    """
    A = A if sp.isspmatrix_csr(A) else A.tocsr()
    norms = np.zeros(A.shape[1])
    if A.nnz:
        np.maximum.at(norms, A.indices, np.abs(A.data))
    return norms


def _check_zero_rows(zero_rows: np.ndarray, b: np.ndarray) -> None:
    bad = [int(r) for r in zero_rows if abs(b[r]) > 1e-12]
    if bad:
        raise ValueError(
            f"equality rows {bad} have zero coefficients but nonzero right-hand side; "
            "the polynomial identity cannot be satisfied"
        )


def equilibrate(problem: ConicProblem, min_scale: float = 1e-6,
                max_scale: float = 1e6) -> Tuple[ConicProblem, ScalingData]:
    """Row-equilibrate ``A x = b`` and normalise the cost vector.

    Each equality row is divided by the infinity norm of its coefficients
    (clipped to ``[min_scale, max_scale]``) so all rows have comparable
    magnitude.  The cost vector is divided by its own infinity norm; the
    original objective value is recovered through :class:`ScalingData`.
    """
    A = problem.A.tocsr(copy=True)
    b = problem.b.copy()
    m = A.shape[0]
    row_scale = np.ones(m)
    if m > 0 and A.nnz > 0:
        row_norms = row_inf_norms(A)
        row_norms[row_norms == 0.0] = 1.0
        row_scale = 1.0 / np.clip(row_norms, min_scale, max_scale)
        A.data *= np.repeat(row_scale, np.diff(A.indptr))
        b = row_scale * b

    c = problem.c.copy()
    cost_norm = float(np.abs(c).max()) if c.size else 0.0
    if cost_norm > 0.0:
        cost_scale = cost_norm
        c = c / cost_norm
    else:
        cost_scale = 1.0

    scaled = ConicProblem(c=c, A=A, b=b, dims=problem.dims, layout=problem.layout)
    return scaled, ScalingData(row_scale=row_scale, cost_scale=cost_scale)


def drop_zero_rows(problem: ConicProblem, tolerance: float = 0.0) -> ConicProblem:
    """Remove equality rows with all-zero coefficients.

    A zero row with nonzero right-hand side makes the problem trivially
    infeasible; that is reported by raising ``ValueError`` so the SOS layer can
    surface a meaningful error (it means a monomial appears with a fixed
    nonzero coefficient but no decision variable can produce it).
    """
    A = problem.A.tocsr()
    if A.shape[0] == 0:
        return problem
    row_norms = row_inf_norms(A)
    zero_rows = np.where(row_norms <= tolerance)[0]
    if zero_rows.size == 0:
        return problem
    _check_zero_rows(zero_rows, problem.b)
    keep = np.setdiff1d(np.arange(A.shape[0]), zero_rows)
    return ConicProblem(c=problem.c, A=A[keep], b=problem.b[keep],
                        dims=problem.dims, layout=problem.layout)


def presolve(problem: ConicProblem, scale: bool = True, min_scale: float = 1e-6,
             max_scale: float = 1e6) -> Tuple[ConicProblem, Optional[ScalingData]]:
    """Fused ``drop_zero_rows`` + ``equilibrate`` sharing one row-norm pass.

    Returns the presolved problem and the applied :class:`ScalingData`
    (``None`` when ``scale`` is false).  Raises ``ValueError`` for trivially
    infeasible zero rows, exactly like :func:`drop_zero_rows`.
    """
    A = problem.A  # ConicProblem guarantees CSR
    b = problem.b
    m = A.shape[0]
    if m == 0:
        if not scale:
            return problem, None
        return equilibrate(problem, min_scale, max_scale)

    row_norms = row_inf_norms(A)
    zero_rows = np.where(row_norms == 0.0)[0]
    if zero_rows.size:
        _check_zero_rows(zero_rows, b)
        keep = np.setdiff1d(np.arange(m), zero_rows)
        A = A[keep]
        b = b[keep]
        row_norms = row_norms[keep]
        m = A.shape[0]

    if not scale:
        return ConicProblem(c=problem.c, A=A, b=b, dims=problem.dims,
                            layout=problem.layout), None

    row_scale = np.ones(m)
    if m > 0 and A.nnz > 0:
        norms = row_norms.copy()
        norms[norms == 0.0] = 1.0
        row_scale = 1.0 / np.clip(norms, min_scale, max_scale)
        scaled_data = A.data * np.repeat(row_scale, np.diff(A.indptr))
        A = sp.csr_matrix((scaled_data, A.indices, A.indptr), shape=A.shape)
        b = row_scale * b

    c = problem.c.copy()
    cost_norm = float(np.abs(c).max()) if c.size else 0.0
    if cost_norm > 0.0:
        cost_scale = cost_norm
        c = c / cost_norm
    else:
        cost_scale = 1.0

    scaled = ConicProblem(c=c, A=A, b=b, dims=problem.dims, layout=problem.layout)
    return scaled, ScalingData(row_scale=row_scale, cost_scale=cost_scale)
