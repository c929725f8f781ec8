"""Cone descriptions and Euclidean projections for the conic SDP solver.

The solver works over the symmetric cone

    K = R^{f}  x  R_+^{l}  x  S_+^{k_1} x ... x S_+^{k_p}

where PSD blocks are stored in scaled-vector (``svec``) form so that the
Euclidean inner product on vectors equals the Frobenius inner product on
matrices.  All svec/smat conversions run through cached upper-triangle index
tables, and cone projections batch equal-size PSD blocks through a single
stacked ``eigh`` call — the per-iteration hot path of the ADMM solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .backend import NUMPY_BACKEND

SQRT2 = float(np.sqrt(2.0))


def svec_dim(order: int) -> int:
    """Length of the svec of a symmetric ``order x order`` matrix."""
    return order * (order + 1) // 2


@lru_cache(maxsize=512)
def _triu_cache(order: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, col, scale) index tables for the svec layout of one order.

    The svec layout walks the upper triangle row-major — (0,0), (0,1), ...,
    (0,n-1), (1,1), ... — which is exactly ``np.triu_indices`` order.  The
    scale is 1 on the diagonal and sqrt(2) off it.
    """
    rows, cols = np.triu_indices(order)
    scale = np.where(rows == cols, 1.0, SQRT2)
    for arr in (rows, cols, scale):
        arr.setflags(write=False)
    return rows, cols, scale


def svec(matrix: np.ndarray) -> np.ndarray:
    """Scaled vectorisation of a symmetric matrix (upper triangle, off-diag * sqrt 2)."""
    matrix = np.asarray(matrix, dtype=float)
    order = matrix.shape[0]
    if matrix.shape != (order, order):
        raise ValueError("svec expects a square matrix")
    rows, cols, scale = _triu_cache(order)
    return 0.5 * (matrix[rows, cols] + matrix[cols, rows]) * scale


def smat(vector: np.ndarray, order: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape[0] != svec_dim(order):
        raise ValueError(
            f"vector of length {vector.shape[0]} is not an svec of order {order}"
        )
    rows, cols, scale = _triu_cache(order)
    values = vector / scale
    matrix = np.zeros((order, order))
    matrix[rows, cols] = values
    matrix[cols, rows] = values
    return matrix


def smat_many(vectors: np.ndarray, order: int) -> np.ndarray:
    """Batched :func:`smat`: ``(k, svec_dim)`` svecs to ``(k, order, order)``."""
    vectors = np.asarray(vectors, dtype=float)
    rows, cols, scale = _triu_cache(order)
    values = vectors / scale
    matrices = np.zeros((vectors.shape[0], order, order))
    matrices[:, rows, cols] = values
    matrices[:, cols, rows] = values
    return matrices


def svec_many(matrices: np.ndarray, order: int) -> np.ndarray:
    """Batched :func:`svec`: ``(k, order, order)`` matrices to ``(k, svec_dim)``."""
    matrices = np.asarray(matrices, dtype=float)
    rows, cols, scale = _triu_cache(order)
    return 0.5 * (matrices[:, rows, cols] + matrices[:, cols, rows]) * scale


def svec_indices(order: int) -> List[Tuple[int, int]]:
    """The (row, col) pair addressed by each svec position."""
    rows, cols, _ = _triu_cache(order)
    return [(int(i), int(j)) for i, j in zip(rows, cols)]


def svec_entry_coefficient(i: int, j: int) -> float:
    """Multiplier converting a matrix entry ``M_ij`` into its svec coordinate."""
    return 1.0 if i == j else SQRT2


@dataclass(frozen=True)
class ConeDims:
    """Dimensions of the product cone."""

    free: int = 0
    nonneg: int = 0
    psd: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.free < 0 or self.nonneg < 0 or any(k <= 0 for k in self.psd):
            raise ValueError(f"invalid cone dimensions: {self}")

    @property
    def total(self) -> int:
        return self.free + self.nonneg + sum(svec_dim(k) for k in self.psd)

    def slices(self) -> Tuple[slice, slice, List[slice]]:
        """(free slice, nonneg slice, list of PSD svec slices) into the variable vector."""
        free_slice = slice(0, self.free)
        nonneg_slice = slice(self.free, self.free + self.nonneg)
        psd_slices = []
        offset = self.free + self.nonneg
        for order in self.psd:
            length = svec_dim(order)
            psd_slices.append(slice(offset, offset + length))
            offset += length
        return free_slice, nonneg_slice, psd_slices

    def describe(self) -> str:
        return (f"free={self.free}, nonneg={self.nonneg}, "
                f"psd blocks={list(self.psd)} (total dim={self.total})")


@lru_cache(maxsize=256)
def _psd_block_groups(dims: ConeDims) -> Tuple[Tuple[int, np.ndarray], ...]:
    """Group the PSD blocks of ``dims`` by matrix order.

    Returns ``(order, gather)`` pairs where ``gather`` is a ``(k, svec_dim)``
    index matrix selecting the svec coordinates of the ``k`` same-order blocks
    from the stacked variable vector.  Equal-size blocks (the common case:
    every S-procedure multiplier of a mode shares one Gram order) are then
    projected with one stacked ``eigh`` instead of ``k`` separate calls.
    """
    starts: dict = {}
    offset = dims.free + dims.nonneg
    for order in dims.psd:
        starts.setdefault(order, []).append(offset)
        offset += svec_dim(order)
    groups = []
    for order in sorted(starts):
        base = np.asarray(starts[order], dtype=np.int64)
        gather = base[:, None] + np.arange(svec_dim(order), dtype=np.int64)[None, :]
        gather.setflags(write=False)
        groups.append((order, gather))
    return tuple(groups)


def project_psd_svec(vector: np.ndarray, order: int) -> Tuple[np.ndarray, float]:
    """Project an svec onto the PSD cone; also return the smallest eigenvalue."""
    matrix = smat(vector, order)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    clipped = np.clip(eigenvalues, 0.0, None)
    projected = (eigenvectors * clipped) @ eigenvectors.T
    return svec(projected), float(eigenvalues.min()) if eigenvalues.size else 0.0


def _project_psd2_batch(vectors: np.ndarray):
    """Closed-form PSD projection of ``(k, 3)`` svecs of 2x2 blocks.

    A symmetric 2x2 matrix ``[[a, c], [c, b]]`` has eigenvalues ``m ± r``
    with ``m = (a+b)/2`` and ``r = hypot((a-b)/2, c)``; clipping them and
    recombining through the spectral projector ``(M - e_-) / (2r)`` projects
    without any LAPACK call.  Order-2 PSD blocks come from small S-procedure
    multipliers and two-vertex chordal cliques: a stacked ``eigh`` over many
    2x2 matrices is dominated by per-block LAPACK overhead, while this
    formula is a handful of vectorised array operations.
    """
    a = vectors[:, 0]
    c = vectors[:, 1] / SQRT2
    b = vectors[:, 2]
    mean = 0.5 * (a + b)
    radius = np.hypot(0.5 * (a - b), c)
    lo = mean - radius
    hi = mean + radius
    lo_clip = np.clip(lo, 0.0, None)
    hi_clip = np.clip(hi, 0.0, None)
    # P = w * M + shift * I with w = (hi+ - lo+) / (hi - lo); a zero radius
    # means a spherical matrix, whose projection is plain eigenvalue clipping
    # (w = 0, shift = clip(mean)).
    weight = np.where(radius > 0.0,
                      (hi_clip - lo_clip) / np.where(radius > 0.0, 2.0 * radius, 1.0),
                      0.0)
    shift = lo_clip - weight * lo
    projected = np.empty((vectors.shape[0], 3))
    projected[:, 0] = weight * a + shift
    projected[:, 1] = weight * c * SQRT2
    projected[:, 2] = weight * b + shift
    return projected, lo


def _project_psd_batch(vectors: np.ndarray, order: int):
    """Project ``(k, svec_dim)`` svecs onto the PSD cone with one stacked eigh.

    Returns the projected svecs and the per-block minimum eigenvalues.
    Order-2 blocks bypass LAPACK entirely through the closed-form
    :func:`_project_psd2_batch`.
    """
    vectors = np.asarray(vectors, dtype=float)
    if order == 2:
        return _project_psd2_batch(vectors)
    matrices = smat_many(vectors, order)
    eigenvalues, eigenvectors = NUMPY_BACKEND.eigh(matrices)
    clipped = np.clip(eigenvalues, 0.0, None)
    projected = (eigenvectors * clipped[:, None, :]) @ eigenvectors.swapaxes(1, 2)
    return svec_many(projected, order), eigenvalues[:, 0]


def project_onto_cone(vector: np.ndarray, dims: ConeDims) -> np.ndarray:
    """Euclidean projection of ``vector`` onto ``K``."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape[0] != dims.total:
        raise ValueError(
            f"vector length {vector.shape[0]} does not match cone dimension {dims.total}"
        )
    out = np.array(vector, copy=True)
    nonneg_slice = slice(dims.free, dims.free + dims.nonneg)
    out[nonneg_slice] = np.clip(vector[nonneg_slice], 0.0, None)
    for order, gather in _psd_block_groups(dims):
        projected, _ = _project_psd_batch(vector[gather], order)
        out[gather] = projected
    return out


def project_onto_cone_many(points: np.ndarray, dims: ConeDims) -> np.ndarray:
    """Batched :func:`project_onto_cone` for a ``(B, total)`` array of points.

    All PSD blocks of all batch members that share a matrix order are
    projected with a single stacked ``eigh`` — the hot path of the batched
    ADMM engine, where ``B`` structurally identical problems advance in one
    iteration loop.  Row ``i`` of the result equals
    ``project_onto_cone(points[i], dims)``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != dims.total:
        raise ValueError(
            f"point length {points.shape[1]} does not match cone dimension {dims.total}"
        )
    out = np.array(points, copy=True)
    nonneg_slice = slice(dims.free, dims.free + dims.nonneg)
    out[:, nonneg_slice] = np.clip(points[:, nonneg_slice], 0.0, None)
    batch = points.shape[0]
    for order, gather in _psd_block_groups(dims):
        k = gather.shape[0]
        stacked = points[:, gather].reshape(batch * k, svec_dim(order))
        projected, _ = _project_psd_batch(stacked, order)
        out[:, gather] = projected.reshape(batch, k, svec_dim(order))
    return out


def cone_violation(vector: np.ndarray, dims: ConeDims) -> float:
    """Infinity-norm distance of ``vector`` from ``K`` (0 when inside)."""
    vector = np.asarray(vector, dtype=float)
    violation = 0.0
    nonneg_part = vector[dims.free:dims.free + dims.nonneg]
    if nonneg_part.size:
        violation = max(violation, float(np.clip(-nonneg_part, 0.0, None).max(initial=0.0)))
    for order, gather in _psd_block_groups(dims):
        eigenvalues = np.linalg.eigvalsh(smat_many(vector[gather], order))
        min_eig = float(eigenvalues[:, 0].min())
        violation = max(violation, max(0.0, -min_eig))
    return violation
