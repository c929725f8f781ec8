"""Batched primal–dual interior-point method for :class:`ConicProblem`.

The method is infeasible-start primal–dual path following with the HKM
search direction and Mehrotra's predictor–corrector (Helmberg, Rendl,
Vanderbei & Wolkowicz 1996; Kojima, Shindoh & Hara 1997; Monteiro 1997;
the SDPT3 scheme of Toh, Todd & Tütüncü 1999) on

    minimize cᵀx  s.t.  A x = b,  x ∈ R^free × R_+^nonneg × S_+^{k_1} × ...

Each problem is first split into its independent blocks (:class:`_Split`,
once per distinct ``A``): the connected components of the bipartite graph
between rows and cone units, where a unit is one free column, one nonneg
column or one whole PSD block.  A unit that no row touches is a block of
its own with no rows; it ends ``FEASIBLE`` at once when its cost is zero.
Blocks with byte-identical ``A``, ``b`` and ``c`` anywhere in the batch are
solved once.  A problem of one block is solved as it is, and its result is
exactly what the unsplit method returns.  A problem of several blocks has
the status

* ``INFEASIBLE`` when some block's Farkas ``y``, zero-padded to every row,
  passes :func:`farkas_margin` on the *whole* problem: ``info["farkas_y"]``
  is that padded ``y`` and ``info["refuted_component"]`` the index of the
  first such block;
* else ``NUMERICAL_ERROR`` when a block's certificate fails that check or a
  block ended ``NUMERICAL_ERROR``;
* else ``MAX_ITERATIONS`` when a block did;
* else ``OPTIMAL`` (``FEASIBLE`` when ``c = 0``).

Its blocks are solved only up to the refuting one (:class:`_Plan`): a
problem is settled at block ``k`` once blocks ``0..k`` are solved and ``k``
is the first of them whose certificate passes that check, and no block after
``k`` is solved for it.  ``x`` is the concatenation of the iterates of the
blocks read, and zero on the columns of the blocks after ``k``.
``iterations`` and the relative residuals are the largest over the blocks,
except on ``INFEASIBLE``, where they are the refuting block's: the verdict
rests on its certificate alone.  Every result carries ``info["components"]``,
the number of blocks, and ``info["solved_components"]``, the number of
blocks whose iterates ``x`` holds (``k + 1`` on a refuted problem, else
``components``).

Before the loop, each distinct block ``A`` is reduced once
(:class:`_Reduction`): its rows are scaled to unit infinity norm, a pivoted
QR of the free columns eliminates them, and an SVD of what is left keeps an
orthonormal basis of the independent rows.  The loop then works on the cone
columns alone, with an ``r × r`` Schur matrix ``Ā (X ⊛ S⁻¹) Āᵀ`` per block.

A batch advances every block that shares one ``A`` in one loop.  Each
Newton step runs over chunks of members sized by :data:`STEP_BYTES`: the
chunk's Schur matrices are formed with stacked matmuls and factorised by one
stacked ``np.linalg.cholesky``, and its PSD blocks of equal order go through
stacked ``eigh`` calls.  No quantity couples two problems, and every array a
row's BLAS call reads is C-contiguous, so a member's result is bit-identical
to solving it alone.  A Schur matrix whose Cholesky breaks down is
factorised on its own by LU, after a tiny diagonal shift.

Each block's solve ends in one of three ways:

* ``OPTIMAL`` (``FEASIBLE`` when ``c = 0``) at relative residuals and gap
  of at most :data:`TOLERANCE`;
* ``INFEASIBLE`` with ``info["farkas_y"]``, a ``y`` with ``bᵀy = 1`` whose
  :func:`farkas_margin` on the original ``A`` and ``b`` is at most
  :data:`FARKAS_TOLERANCE`.  Nothing else sets this status;
* ``MAX_ITERATIONS`` after :data:`MAX_ITERATIONS` Newton steps.

A problem whose data holds a NaN or inf ends ``NUMERICAL_ERROR`` before the
loop; so does one whose iterate turns non-finite.  Every status returns the
last primal iterate as ``x``.  The method has no settings.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .admm import NON_FINITE_REASON, has_finite_data
from .cones import ConeDims, _psd_block_groups, smat_many, svec_dim, svec_many
from .problem import ConicProblem
from .result import SolverResult, SolverStatus
from .scaling import row_inf_norms

#: Relative primal and dual residual and relative gap of a solved problem.
TOLERANCE = 1e-8
#: Largest Farkas margin (at ``bᵀy = 1``) accepted as proof of infeasibility.
FARKAS_TOLERANCE = 1e-8
#: Newton steps before a solve ends ``MAX_ITERATIONS``.
MAX_ITERATIONS = 100
#: Fraction of the longest step to the cone boundary that is taken.
STEP_FRACTION = 0.98
#: Singular values (and QR pivots) below this share of the largest one count
#: as zero in the free-column and row eliminations.
RANK_TOLERANCE = 1e-10
#: Working-array budget of one Newton step: members take their steps in
#: chunks of about this many bytes of ``(r, r + n)`` arrays, which bounds
#: the solver's memory whatever the batch size.
STEP_BYTES = 1 << 20
#: Smallest eigenvalue, relative to the largest, of an iterate block whose
#: inverse or inverse root is taken.
EIGEN_FLOOR = 1e-20
#: Relative diagonal shift of a Schur matrix that is factorised by LU.
SCHUR_SHIFT = 1e-12


def farkas_margin(problem: ConicProblem, y: np.ndarray) -> float:
    """How far ``y`` is from proving ``A x = b, x ∈ K`` infeasible.

    ``y`` is normalised to ``bᵀy = 1`` and ``z = −Aᵀy`` is formed.  The
    margin δ is the largest of ``|z_free|∞``, the negative part of
    ``z_nonneg`` and ``−λ_min`` of each PSD block of ``z``.  With δ = 0,
    ``y`` is an exact Farkas certificate; with δ > 0 every feasible ``x``
    needs ``‖x_free‖₁ + ‖x_nonneg‖₁ + Σ tr X_j ≥ 1/δ``.  ``inf`` when
    ``bᵀy ≤ 0`` or ``y`` is not finite.
    """
    y = np.asarray(y, dtype=float).ravel()
    scale = float(problem.b @ y)
    if not (np.isfinite(scale) and scale > 0.0 and np.isfinite(y).all()):
        return float("inf")
    z = -(problem.A.T @ (y / scale))
    dims = problem.dims
    delta = 0.0
    if dims.free:
        delta = float(np.abs(z[:dims.free]).max())
    if dims.nonneg:
        delta = max(delta, float(-z[dims.free:dims.free + dims.nonneg].min()))
    for order, gather in _psd_block_groups(dims):
        smallest = np.linalg.eigvalsh(smat_many(z[gather], order))[:, 0]
        delta = max(delta, float(-smallest.min()))
    return delta


class _Reduction:
    """One ``A`` with its free columns and dependent rows eliminated.

    With ``D`` the row scaling to unit infinity norm and ``A_f P = Q R`` a
    pivoted QR of the scaled free columns (numerical rank ``r_f``), the
    rows ``Q₂ᵀ D A`` do not touch the free columns.  An SVD
    ``Q₂ᵀ D A_c = U Σ Vᵀ`` keeps its ``r`` nonzero singular values, and the
    reduced problem is

        minimize ĉᵀx_c  s.t.  Vᵣᵀ x_c = b̄,  x_c ∈ K_c

    with ``b̄ = Tb``, ``T = Σᵣ⁻¹ Uᵣᵀ Q₂ᵀ D``.  Its rows are orthonormal.  A
    reduced dual ``ȳ`` maps to ``y = Tᵀȳ``, with ``bᵀy = b̄ᵀȳ`` and
    ``−Aᵀy = (0, −Vᵣȳ)``; so a reduced Farkas ray is one of the original.
    The free part of ``x`` is ``x_f = F (b − A_c x_c)`` on the pivot
    columns and zero elsewhere; free columns beyond the numerical rank stay
    at zero, so a cost on them that the pivot columns cannot absorb (an
    unbounded problem) goes unnoticed.  ``null_rows`` spans the rows that
    the reduction dropped as dependent.
    """

    def __init__(self, problem: ConicProblem):
        dims = problem.dims
        A = problem.A
        m = A.shape[0]
        f = dims.free
        norms = row_inf_norms(A)
        norms[norms == 0.0] = 1.0
        row_scale = 1.0 / norms
        scaled = A.multiply(row_scale[:, None]).tocsr().toarray()
        A_f, A_c = scaled[:, :f], scaled[:, f:]

        rank_f = 0
        pivots = np.arange(f)
        if f and m:
            Q, R, pivots = la.qr(A_f, pivoting=True)
            diag = np.abs(np.diag(R))
            rank_f = int((diag > RANK_TOLERANCE * diag[0]).sum()) if diag.size else 0
            Q1, Q2 = Q[:, :rank_f], Q[:, rank_f:]
            # x_f (pivot columns) = R₁₁⁻¹ Q₁ᵀ D (b − A_c x_c)
            free_map = la.solve_triangular(R[:rank_f, :rank_f], Q1.T * row_scale)
        else:
            Q2 = np.eye(m)
            free_map = np.zeros((0, m))
        self.free_pivots = pivots[:rank_f]
        self.free_map = free_map                        # (r_f, m)
        self.free_coupling = free_map @ A[:, f:].toarray() if rank_f else \
            np.zeros((0, A.shape[1] - f))               # (r_f, n_c)

        reduced = Q2.T @ A_c
        rank = 0
        if reduced.size:
            # Full U only when it is needed to span the whole left null space.
            U, sigma, Vt = np.linalg.svd(
                reduced, full_matrices=reduced.shape[0] > reduced.shape[1])
            if sigma[0] > 0.0:
                rank = int((sigma > RANK_TOLERANCE * sigma[0]).sum())
        else:
            U = np.eye(reduced.shape[0])
            sigma = np.zeros(0)
            Vt = np.zeros((0, reduced.shape[1]))
        left = Q2 * row_scale[:, None]                  # D Q₂
        self.A_bar = Vt[:rank]                          # (r, n_c), orthonormal rows
        self.T = (left @ (U[:, :rank] / sigma[:rank])).T   # (r, m)
        self.null_rows = (left @ U[:, rank:]).T         # dependent rows
        self.cone_dims = ConeDims(0, dims.nonneg, dims.psd)
        self.free = f

    def reduce_cost(self, c: np.ndarray) -> np.ndarray:
        """``ĉ`` of the reduced problem (the constant ``c_fᵀ F b`` is omitted)."""
        c_free = c[:self.free][self.free_pivots]
        return c[self.free:] - self.free_coupling.T @ c_free

    def full_x(self, b: np.ndarray, x_cone: np.ndarray) -> np.ndarray:
        """The original variable vector of a reduced iterate."""
        x = np.zeros(self.free + x_cone.shape[0])
        x[self.free:] = x_cone
        if self.free_pivots.size:
            x[self.free_pivots] = self.free_map @ b - self.free_coupling @ x_cone
        return x


def _matrices(v: np.ndarray, order: int, gather: np.ndarray) -> np.ndarray:
    """The ``(k, g, order, order)`` matrices of one block group of each row.

    ``np.take`` returns a C-contiguous array for any ``k``; a fancy index
    ``v[:, gather]`` may interleave the rows, and BLAS then takes a
    different path on a row's data depending on the batch it sits in.
    """
    g, d = gather.shape
    matrices = smat_many(np.take(v, gather, axis=1).reshape(-1, d), order)
    return matrices.reshape(v.shape[0], g, order, order)


def _rows(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``V @ M`` computed row by row.

    A stacked ``(k, 1, n) @ (n, p)`` product makes the same BLAS call for
    every row whatever ``k`` is, so a row's result does not depend on the
    batch it sits in; a plain ``(k, n) @ (n, p)`` product may not.
    """
    return (V[:, None, :] @ M)[:, 0, :]


def _eigh(stack: np.ndarray, values_only: bool = False):
    """Stacked ``eigh`` (or ``eigvalsh``) whose failure stays in its matrix.

    When LAPACK fails on one matrix of the stack (a NaN iterate), the stack
    is redone matrix by matrix and the failed one reads NaN, so the failure
    ends only the problem it belongs to.
    """
    solver = np.linalg.eigvalsh if values_only else np.linalg.eigh
    try:
        return solver(stack)
    except np.linalg.LinAlgError:
        pass
    order = stack.shape[-1]
    flat = stack.reshape(-1, order, order)
    values = np.full(flat.shape[:2], np.nan)
    vectors = np.full(flat.shape, np.nan)
    for i, matrix in enumerate(flat):
        try:
            if values_only:
                values[i] = solver(matrix)
            else:
                values[i], vectors[i] = solver(matrix)
        except np.linalg.LinAlgError:
            pass
    values = values.reshape(stack.shape[:-1])
    if values_only:
        return values
    return values, vectors.reshape(stack.shape)


def _power(spectrum, exponent: float) -> np.ndarray:
    """``M^exponent`` of stacked PD matrices from their ``eigh``.

    Eigenvalues below :data:`EIGEN_FLOOR` times the largest are raised to
    it: an iterate on the cone boundary by rounding stays usable.
    """
    values, vectors = spectrum
    floor = EIGEN_FLOOR * np.abs(values).max(axis=-1, keepdims=True)
    scaled = vectors * np.maximum(values, floor)[..., None, :] ** exponent
    return scaled @ vectors.swapaxes(-1, -2)


def _sym_kron_tables(order: int):
    """Index tables of the svec matrix of ``U ↦ ½(X U Y + Y U X)``.

    Entry ``(a, b)`` with ``a = (i, j)`` and ``b = (k, l)`` is
    ``s_a (X_ik Y_lj + X_il Y_kj + Y_ik X_lj + Y_il X_kj) / (2 t_b)``, where
    ``s_a`` is the svec scale of ``a`` and ``t_b`` is 2 on the diagonal and
    √2 off it.
    """
    rows, cols = np.triu_indices(order)
    scale_a = np.where(rows == cols, 1.0, np.sqrt(2.0))
    t_b = np.where(rows == cols, 2.0, np.sqrt(2.0))
    weight = scale_a[:, None] / (2.0 * t_b[None, :])
    return rows[:, None], cols[:, None], rows[None, :], cols[None, :], weight


def _sym_kron(X: np.ndarray, Y: np.ndarray, tables) -> np.ndarray:
    """Stacked svec matrices of ``X ⊛ Y`` for ``(..., k, k)`` stacks.

    The fancy indices lay their results out by batch size; the sum is
    written into a C-contiguous array so that its products do not depend on
    the batch.
    """
    i, j, k, l, weight = tables
    T = np.empty(X.shape[:-2] + weight.shape)
    np.multiply(X[..., i, k], Y[..., l, j], out=T)
    T += X[..., i, l] * Y[..., k, j]
    T += Y[..., i, k] * X[..., l, j]
    T += Y[..., i, l] * X[..., k, j]
    T *= weight
    return T


class _Group:
    """The batched IPM loop over the problems that share one ``A``."""

    def __init__(self, reduction: _Reduction):
        self.red = reduction
        dims = reduction.cone_dims
        self.dims = dims
        self.n = dims.total
        self.nonneg = slice(0, dims.nonneg)
        self.blocks = []
        for order, gather in _psd_block_groups(dims):
            A_g = reduction.A_bar[:, gather].transpose(1, 0, 2)   # (g, r, d)
            A_flat = reduction.A_bar[:, gather.reshape(-1)]      # (r, g d)
            self.blocks.append((order, gather, np.ascontiguousarray(A_g), A_flat,
                                _sym_kron_tables(order)))
        self.nu = max(dims.nonneg + sum(dims.psd), 1)
        r = reduction.A_bar.shape[0]
        self.chunk = max(1, STEP_BYTES // (8 * r * (r + self.n) + 1))

    # -- cone algebra ----------------------------------------------------
    def initial_point(self, b_bar: np.ndarray, c_hat: np.ndarray):
        """An interior start ``ξ e, η e`` sized from ``b̄`` and ``ĉ``."""
        size = max([1] + list(self.dims.psd))
        xi = max(10.0, np.sqrt(size), size * (1.0 + float(np.abs(b_bar).max(initial=0.0))) / 2.0)
        eta = max(10.0, np.sqrt(size), 1.0 + float(np.abs(c_hat).max(initial=0.0)))
        x = np.zeros(self.n)
        s = np.zeros(self.n)
        x[self.nonneg] = xi
        s[self.nonneg] = eta
        for order, gather, *_ in self.blocks:
            identity = svec_many(np.eye(order)[None], order)[0]
            x[gather] = xi * identity
            s[gather] = eta * identity
        return x, s

    def max_step(self, v: np.ndarray, dv: np.ndarray, inv_sqrt) -> np.ndarray:
        """Longest ``α ≤ 1/STEP_FRACTION`` keeping ``v + α dv`` in the cone, per row."""
        limit = np.full(v.shape[0], np.inf)
        if self.dims.nonneg:
            ratio = np.where(dv[:, self.nonneg] < 0.0,
                             -v[:, self.nonneg] / np.where(dv[:, self.nonneg] < 0.0,
                                                           dv[:, self.nonneg], -1.0),
                             np.inf)
            limit = np.minimum(limit, ratio.min(axis=1))
        for (order, gather, *_), root in zip(self.blocks, inv_sqrt):
            D = _matrices(dv, order, gather)
            smallest = _eigh(root @ D @ root, values_only=True)[..., 0].min(axis=1)
            limit = np.minimum(limit, np.where(smallest < 0.0, -1.0 / np.where(
                smallest < 0.0, smallest, -1.0), np.inf))
        return np.minimum(1.0, STEP_FRACTION * limit)

    # -- the loop --------------------------------------------------------
    def solve(self, members: List[Tuple[ConicProblem, np.ndarray]]) -> List[SolverResult]:
        """Run the loop over ``(problem, ĉ)`` members; one result each."""
        red = self.red
        A_bar = red.A_bar
        B = len(members)
        n = self.n
        b_bar = np.stack([red.T @ p.b for p, _ in members]) if B else None
        c_hat = np.stack([c for _, c in members])
        feasibility = [not p.c.any() for p, _ in members]
        X = np.empty((B, n))
        S = np.empty((B, n))
        for row in range(B):
            X[row], S[row] = self.initial_point(b_bar[row], c_hat[row])
        Y = np.zeros((B, A_bar.shape[0]))
        b_norm = np.sqrt((b_bar * b_bar).sum(axis=1))
        c_norm = np.sqrt((c_hat * c_hat).sum(axis=1))

        statuses: List[Optional[SolverStatus]] = [None] * B
        iterations = np.zeros(B, dtype=np.int64)
        primal_res = np.full(B, np.nan)
        dual_res = np.full(B, np.nan)
        certificates: Dict[int, Tuple[np.ndarray, float]] = {}
        # The part of b along the rows the reduction dropped is out of reach
        # of every x; it counts in the primal residual, and when it is a
        # Farkas ray by itself the problem is refuted before the loop.
        unreached = np.zeros(B)
        for member, (problem, _) in enumerate(members):
            lost = red.null_rows @ problem.b
            unreached[member] = np.sqrt((lost * lost).sum())
            if unreached[member] > 0.0:
                ray = red.null_rows.T @ lost
                ray = ray / float(problem.b @ ray)
                delta = farkas_margin(problem, ray)
                if delta <= FARKAS_TOLERANCE:
                    statuses[member] = SolverStatus.INFEASIBLE
                    certificates[member] = (ray, delta)
        active = np.flatnonzero([status is None for status in statuses])

        for step in range(MAX_ITERATIONS + 1):
            if not active.size:
                break
            x, y, s = X[active], Y[active], S[active]
            bb, cc = b_bar[active], c_hat[active]
            r_p = bb - _rows(x, A_bar.T)
            r_d = cc - _rows(y, A_bar) - s
            rel_p = np.sqrt((r_p * r_p).sum(axis=1) + unreached[active] ** 2) \
                / (1.0 + b_norm[active])
            rel_d = np.sqrt((r_d * r_d).sum(axis=1)) / (1.0 + c_norm[active])
            primal_obj = (cc * x).sum(axis=1)
            dual_obj = (bb * y).sum(axis=1)
            gap = np.abs(primal_obj - dual_obj) / (1.0 + np.abs(primal_obj)
                                                   + np.abs(dual_obj))
            primal_res[active] = rel_p
            dual_res[active] = rel_d
            iterations[active] = step

            done = np.zeros(active.size, dtype=bool)
            for pos, member in enumerate(active):
                if rel_p[pos] > TOLERANCE:
                    continue
                if feasibility[member]:
                    statuses[member] = SolverStatus.FEASIBLE
                    done[pos] = True
                elif rel_d[pos] <= TOLERANCE and gap[pos] <= TOLERANCE:
                    statuses[member] = SolverStatus.OPTIMAL
                    done[pos] = True
            # A dual iterate with b̄ᵀy > 0 may be a Farkas ray; it counts
            # once farkas_margin accepts it on the original data.
            for pos in np.flatnonzero((dual_obj > 0.0) & ~done):
                member = active[pos]
                ray = red.T.T @ (y[pos] / dual_obj[pos])
                delta = farkas_margin(members[member][0], ray)
                if delta <= FARKAS_TOLERANCE:
                    statuses[member] = SolverStatus.INFEASIBLE
                    certificates[member] = (ray, delta)
                    done[pos] = True
            if step == MAX_ITERATIONS:
                for member in active[~done]:
                    statuses[member] = SolverStatus.MAX_ITERATIONS
                break
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            x, y, s, r_p, r_d = x[keep], y[keep], s[keep], r_p[keep], r_d[keep]

            parts = []
            with np.errstate(all="ignore"):
                for lo in range(0, x.shape[0], self.chunk):
                    rows = slice(lo, lo + self.chunk)
                    parts.append(self._newton_step(x[rows], y[rows], s[rows],
                                                   r_p[rows], r_d[rows]))
            new_x, new_y, new_s = (np.concatenate(part) for part in zip(*parts))
            finite = (np.isfinite(new_x).all(axis=1) & np.isfinite(new_y).all(axis=1)
                      & np.isfinite(new_s).all(axis=1))
            for member in active[~finite]:
                statuses[member] = SolverStatus.NUMERICAL_ERROR
                iterations[member] = step + 1
            X[active[finite]] = new_x[finite]
            Y[active[finite]] = new_y[finite]
            S[active[finite]] = new_s[finite]
            active = active[finite]

        results = []
        for member, (problem, _) in enumerate(members):
            info: Dict[str, object] = {"batch_size": B, "batch_index": member}
            if member in certificates:
                info["farkas_y"], info["farkas_margin"] = certificates[member]
            if statuses[member] is SolverStatus.NUMERICAL_ERROR:
                info["reason"] = "iterate is not finite"
            x_full = red.full_x(problem.b, X[member])
            results.append(SolverResult(
                status=statuses[member],
                x=x_full,
                objective=problem.objective_value(x_full),
                primal_residual=float(primal_res[member]),
                dual_residual=float(dual_res[member]),
                equality_residual=problem.equality_residual(x_full),
                cone_violation=problem.cone_violation(x_full),
                iterations=int(iterations[member]),
                info=info,
            ))
        return results

    def _newton_step(self, x, y, s, r_p, r_d):
        """One Mehrotra predictor–corrector step of every row (HKM direction)."""
        A_bar = self.red.A_bar
        k, n = x.shape
        r = A_bar.shape[0]
        # Scaling W = X ⊛ S⁻¹ per block and the Schur matrix Σ Ā_j W_j Ā_jᵀ,
        # accumulated one block group at a time.
        M = np.zeros((k, r, r))
        spectra = []
        W_blocks = []
        if self.dims.nonneg:
            w_lin = x[:, self.nonneg] / s[:, self.nonneg]
            A_lin = A_bar[:, self.nonneg]
            M += (A_lin[None] * w_lin[:, None, :]) @ A_lin.T
        for order, gather, A_g, A_flat, tables in self.blocks:
            g, d = gather.shape
            Xm = _matrices(x, order, gather)
            Sm = _matrices(s, order, gather)
            x_spectrum = _eigh(Xm)
            s_spectrum = _eigh(Sm)
            S_inv = _power(s_spectrum, -1.0)
            X_root = _power(x_spectrum, -0.5)
            S_root = _power(s_spectrum, -0.5)
            W = _sym_kron(Xm, S_inv, tables)                       # (k, g, d, d)
            W_blocks.append(W)
            spectra.append((Xm, S_inv, X_root, S_root))
            AW = np.empty((k, r, g * d))
            np.matmul(A_g[None], W, out=AW.reshape(k, r, g, d).transpose(0, 2, 1, 3))
            M += AW @ A_flat.T
        factors = _factor_schur(M)

        def apply_W(v):
            out = np.empty_like(v)
            if self.dims.nonneg:
                out[:, self.nonneg] = w_lin * v[:, self.nonneg]
            for (order, gather, *_), W in zip(self.blocks, W_blocks):
                out[:, gather] = (W @ np.take(v, gather, axis=1)[..., None])[..., 0]
            return out

        def direction(R_c):
            rhs = r_p - _rows(R_c - apply_W(r_d), A_bar.T)
            dy = np.stack([solve(rhs[row]) for row, solve in enumerate(factors)])
            ds = r_d - _rows(dy, A_bar)
            dx = R_c - apply_W(ds)
            return dx, dy, ds

        x_roots = [spec[2] for spec in spectra]
        s_roots = [spec[3] for spec in spectra]

        # Predictor: the affine-scaling direction.
        dx, dy, ds = direction(-x)
        alpha_p = self.max_step(x, dx, x_roots)
        alpha_d = self.max_step(s, ds, s_roots)
        mu = (x * s).sum(axis=1) / self.nu
        mu_aff = ((x + alpha_p[:, None] * dx) * (s + alpha_d[:, None] * ds)).sum(axis=1) / self.nu
        sigma = np.minimum(1.0, np.maximum(0.0, mu_aff / mu) ** 3)

        # Corrector: centring plus the second-order term ΔX ΔS S⁻¹.
        R_c = -x.copy()
        if self.dims.nonneg:
            lin = self.nonneg
            R_c[:, lin] += ((sigma * mu)[:, None] - dx[:, lin] * ds[:, lin]) / s[:, lin]
        for (order, gather, *_), (Xm, S_inv, _, _) in zip(self.blocks, spectra):
            g, d = gather.shape
            dX = _matrices(dx, order, gather)
            dS = _matrices(ds, order, gather)
            term = (sigma * mu)[:, None, None, None] * S_inv - dX @ dS @ S_inv
            R_c[:, gather] += svec_many(term.reshape(-1, order, order), order).reshape(k, g, d)
        dx, dy, ds = direction(R_c)
        alpha_p = self.max_step(x, dx, x_roots)
        alpha_d = self.max_step(s, ds, s_roots)
        return (x + alpha_p[:, None] * dx, y + alpha_d[:, None] * dy,
                s + alpha_d[:, None] * ds)


def _factor_schur(M: np.ndarray):
    """A ``solve(rhs)`` per Schur matrix of the ``(k, r, r)`` stack.

    One stacked Cholesky; when it breaks down, each matrix is factorised on
    its own, by Cholesky or else by LU after a :data:`SCHUR_SHIFT` relative
    diagonal shift, so a singular matrix still yields a step.
    """
    if not M.shape[1]:
        return [lambda rhs: rhs] * M.shape[0]
    try:
        L = np.linalg.cholesky(M)
        return [_cholesky_solver(L[row]) for row in range(M.shape[0])]
    except np.linalg.LinAlgError:
        return [_single_solver(M[row]) for row in range(M.shape[0])]


def _cholesky_solver(L):
    return lambda rhs: la.cho_solve((L, True), rhs, check_finite=False)


def _single_solver(M):
    try:
        return _cholesky_solver(np.linalg.cholesky(M))
    except np.linalg.LinAlgError:
        pass
    diag = np.abs(np.diag(M))
    shifted = M + SCHUR_SHIFT * max(float(diag.max(initial=0.0)), 1.0) * np.eye(M.shape[0])
    with np.errstate(all="ignore"):
        lu = la.lu_factor(shifted, check_finite=False)
    return lambda rhs: la.lu_solve(lu, rhs, check_finite=False)


def _matrix_key(dims: ConeDims, A: sp.csr_matrix) -> tuple:
    """The group key of a constraint matrix: its cone dimensions and bytes."""
    return (dims, A.shape, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes())


class _Split:
    """The connected blocks of one ``A``.

    A unit is one free column, one nonneg column or one whole PSD block.
    Rows and units are the nodes of a bipartite graph, with an edge where
    the row has a nonzero in the unit; each connected component is a block
    with its rows, its columns (in their original order, so free, nonneg,
    PSD) and its own ``A``.  Blocks are ordered by their first row; blocks
    without rows (a unit no row touches) come last, in column order.
    """

    def __init__(self, dims: ConeDims, A: sp.csr_matrix, key: tuple):
        # Imported on first use: every ``repro.sdp`` import loads this
        # module, and csgraph adds about 1 MB to runs that never split.
        from scipy.sparse.csgraph import connected_components

        m = A.shape[0]
        linear = dims.free + dims.nonneg
        sizes = [svec_dim(order) for order in dims.psd]
        unit_of = np.concatenate([np.arange(linear),
                                  linear + np.repeat(np.arange(len(sizes)), sizes)])
        nodes = m + linear + len(sizes)
        coo = A.tocoo()
        edge = coo.data != 0.0
        graph = sp.coo_matrix((np.ones(int(edge.sum())),
                               (coo.row[edge], m + unit_of[coo.col[edge]])),
                              shape=(nodes, nodes))
        count, labels = connected_components(graph, directed=False)
        # Number the components in order of their first node.
        _, first = np.unique(labels, return_index=True)
        rank = np.empty(count, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(count)
        labels = rank[labels]
        self.blocks: List[Tuple[np.ndarray, np.ndarray, ConeDims, sp.csr_matrix, tuple]] = []
        if count <= 1:
            self.blocks.append((np.arange(m), np.arange(A.shape[1]), dims, A, key))
            return
        unit_label = labels[m:]
        column_label = unit_label[unit_of]
        for label in range(count):
            rows = np.flatnonzero(labels[:m] == label)
            columns = np.flatnonzero(column_label == label)
            block_dims = ConeDims(
                free=int((unit_label[:dims.free] == label).sum()),
                nonneg=int((unit_label[dims.free:linear] == label).sum()),
                psd=tuple(order for order, unit in zip(dims.psd, unit_label[linear:])
                          if unit == label))
            block = A[rows][:, columns].tocsr()
            block.sort_indices()
            self.blocks.append((rows, columns, block_dims, block,
                                _matrix_key(block_dims, block)))

    def parts(self, problem: ConicProblem) -> List[Tuple[tuple, ConicProblem]]:
        """``(dedup key, sub-problem)`` of each block; the problem itself
        when it is one block."""
        if len(self.blocks) == 1:
            key = self.blocks[0][4]
            return [((key, problem.b.tobytes(), problem.c.tobytes()), problem)]
        parts = []
        for rows, columns, dims, block, key in self.blocks:
            b, c = problem.b[rows], problem.c[columns]
            parts.append(((key, b.tobytes(), c.tobytes()),
                          ConicProblem(c=c, A=block, b=b, dims=dims)))
        return parts


class _Plan:
    """One problem's block results, taken up to the block that refutes it.

    ``refuted`` is the lowest index of a block whose Farkas ``y``,
    zero-padded to every row, passes :func:`farkas_margin` on the whole
    problem; each ``INFEASIBLE`` block is checked once, when its result is
    taken.  Blocks after ``refuted`` are never read, so the problem is
    settled once blocks ``0..refuted`` are solved, or every block when none
    refutes it.
    """

    def __init__(self, problem: ConicProblem, split: _Split, refs: List[tuple]):
        self.problem = problem
        self.split = split
        self.refs = refs
        self.results: List[Optional[SolverResult]] = [None] * len(refs)
        self.checks: Dict[int, Tuple[np.ndarray, float]] = {}
        self.refuted: Optional[int] = None

    def _read(self) -> int:
        """How many leading blocks the result reads."""
        return len(self.refs) if self.refuted is None else self.refuted + 1

    def wanted(self) -> List[tuple]:
        """The refs of the blocks still to be solved; none once settled."""
        read = self._read()
        return [ref for ref, result in zip(self.refs[:read], self.results[:read])
                if result is None]

    def take(self, solved: Dict[tuple, SolverResult]) -> None:
        """Take the results of this problem's blocks that ``solved`` holds."""
        for index, ref in enumerate(self.refs[:self._read()]):
            if self.results[index] is not None or ref not in solved:
                continue
            result = self.results[index] = solved[ref]
            if len(self.refs) == 1 or result.status is not SolverStatus.INFEASIBLE:
                continue
            y = np.zeros(self.problem.num_constraints)
            y[self.split.blocks[index][0]] = result.info["farkas_y"]
            delta = farkas_margin(self.problem, y)
            self.checks[index] = (y, delta)
            if delta <= FARKAS_TOLERANCE:
                self.refuted = index
                break

    def assemble(self) -> SolverResult:
        """The problem's result from the blocks it read."""
        problem, refuted = self.problem, self.refuted
        results = self.results[:self._read()]
        blocks = self.split.blocks
        if len(blocks) == 1:
            (result,) = results
            info = dict(result.info, components=1, solved_components=1)
            if result.status is SolverStatus.INFEASIBLE:
                info["refuted_component"] = 0
            return replace(result, x=result.x.copy(), info=info)

        x = np.zeros(problem.dims.total)
        for (_, columns, *_), result in zip(blocks, results):
            x[columns] = result.x
        info: Dict[str, object] = {"components": len(blocks),
                                   "solved_components": len(results)}
        statuses = [result.status for result in results]
        counted = results
        if refuted is not None:
            status = SolverStatus.INFEASIBLE
            y, delta = self.checks[refuted]
            info.update(farkas_y=y, farkas_margin=delta, refuted_component=refuted)
            counted = [results[refuted]]
        elif SolverStatus.INFEASIBLE in statuses:
            status = SolverStatus.NUMERICAL_ERROR
            info["reason"] = "a block's Farkas certificate fails on the whole problem"
        elif SolverStatus.NUMERICAL_ERROR in statuses:
            status = SolverStatus.NUMERICAL_ERROR
            info["reason"] = "iterate is not finite"
        elif SolverStatus.MAX_ITERATIONS in statuses:
            status = SolverStatus.MAX_ITERATIONS
        else:
            status = SolverStatus.OPTIMAL if problem.c.any() else SolverStatus.FEASIBLE
        return SolverResult(
            status=status,
            x=x,
            objective=problem.objective_value(x),
            primal_residual=float(np.fmax.reduce([r.primal_residual for r in counted])),
            dual_residual=float(np.fmax.reduce([r.dual_residual for r in counted])),
            equality_residual=problem.equality_residual(x),
            cone_violation=problem.cone_violation(x),
            iterations=max(r.iterations for r in counted),
            info=info,
        )


def solve_batch(problems: Sequence[ConicProblem]) -> List[SolverResult]:
    """Solve ``problems``; one :class:`SolverResult` each, in order.

    Each problem is split into its blocks (:class:`_Split`, once per
    distinct ``A``); blocks with equal ``A``, ``b`` and ``c`` anywhere in
    the batch are solved once, and blocks whose ``A`` and cone dimensions
    are equal share one reduction and one batched loop.  The groups run in
    the order their first block appears.  Before each group's loop, blocks
    that no unsettled problem still reads (:class:`_Plan`) are dropped, and
    a group left empty is skipped: a problem refuted by its block ``k``
    reads no block after ``k``, and its ``x`` is zero there even when
    another problem of the batch had that block solved.  So a problem's
    result does not depend on the batch it is solved in.
    """
    start = time.perf_counter()
    problems = list(problems)
    results: List[Optional[SolverResult]] = [None] * len(problems)
    splits: Dict[tuple, _Split] = {}
    parts: Dict[tuple, ConicProblem] = {}
    plans: List[Tuple[int, _Plan]] = []
    for i, problem in enumerate(problems):
        if not has_finite_data(problem):
            results[i] = SolverResult(status=SolverStatus.NUMERICAL_ERROR,
                                      info={"reason": NON_FINITE_REASON})
            continue
        key = _matrix_key(problem.dims, problem.A)
        split = splits.get(key)
        if split is None:
            split = splits[key] = _Split(problem.dims, problem.A, key)
        refs = []
        for ref, part in split.parts(problem):
            parts.setdefault(ref, part)
            refs.append(ref)
        plans.append((i, _Plan(problem, split, refs)))

    groups: Dict[tuple, List[tuple]] = {}
    for ref in parts:
        groups.setdefault(ref[0], []).append(ref)
    for refs in groups.values():
        wanted = {ref for _, plan in plans for ref in plan.wanted()}
        refs = [ref for ref in refs if ref in wanted]
        if not refs:
            continue
        reduction = _Reduction(parts[refs[0]])
        members = [(parts[ref], reduction.reduce_cost(parts[ref].c)) for ref in refs]
        solved = dict(zip(refs, _Group(reduction).solve(members)))
        for _, plan in plans:
            plan.take(solved)
    for i, plan in plans:
        results[i] = plan.assemble()
    elapsed = time.perf_counter() - start
    for result in results:
        result.solve_time = elapsed
    return results  # type: ignore[return-value]
