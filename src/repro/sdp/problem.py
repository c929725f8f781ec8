"""Conic problem container and incremental builder.

Standard form used throughout the library::

    minimize    c^T x
    subject to  A x = b
                x in K = R^free  x  R_+^nonneg  x  S_+^{k_1} x ... x S_+^{k_p}

PSD blocks are stored in svec coordinates.  The :class:`ConicProblemBuilder`
lets the SOS layer allocate variable blocks and add equality rows — one at a
time through a dict interface, or in bulk as COO triplet batches — without
worrying about offsets.  Finalisation maps all recorded triplets to global
column indices in a single vectorised pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .cones import ConeDims, cone_violation, svec_dim, svec_entry_coefficient


@dataclass
class ConicProblem:
    """An immutable conic program in standard form.

    ``layout`` is an optional tag describing how the cone blocks were
    *derived* (e.g. the Gram cone of each SOS constraint,
    ``"chordal:4[0.1;1.2.3],psd:6"``).  It is part of :meth:`fingerprint`, so
    two problems that happen to share identical ``(c, A, b, dims)`` data but
    come from different cones — a dense chordal block is numerically one
    PSD block — never share a cache entry.
    """

    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    dims: ConeDims
    layout: str = ""

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.b = np.asarray(self.b, dtype=float).ravel()
        if not sp.issparse(self.A):
            self.A = sp.csr_matrix(np.atleast_2d(np.asarray(self.A, dtype=float)))
        else:
            self.A = self.A.tocsr()
        if self.c.shape[0] != self.dims.total:
            raise ValueError(
                f"cost vector length {self.c.shape[0]} does not match cone dim {self.dims.total}"
            )
        if self.A.shape[1] != self.dims.total:
            raise ValueError(
                f"A has {self.A.shape[1]} columns, expected {self.dims.total}"
            )
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b have inconsistent row counts")

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]

    @property
    def num_variables(self) -> int:
        return self.dims.total

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.c @ x)

    def equality_residual(self, x: np.ndarray) -> float:
        if self.num_constraints == 0:
            return 0.0
        return float(np.abs(self.A @ x - self.b).max())

    def cone_violation(self, x: np.ndarray) -> float:
        return cone_violation(x, self.dims)

    def fingerprint(self) -> str:
        """Content hash of the problem data, stable across processes and runs.

        Hashes the canonical CSR representation of ``A`` (sorted indices,
        explicit zeros pruned), ``b``, ``c`` and the cone layout with sha256,
        so the digest depends only on the mathematical problem — not on
        assembly order, Python hash seeds or object identities.  Used as the
        content-addressed key of the persistent certificate cache.
        """
        A = self.A.copy()
        A.eliminate_zeros()
        A.sort_indices()
        digest = hashlib.sha256()
        digest.update(np.int64(A.shape[0]).tobytes())
        digest.update(np.int64(A.shape[1]).tobytes())
        digest.update(A.indptr.astype(np.int64).tobytes())
        digest.update(A.indices.astype(np.int64).tobytes())
        digest.update(np.ascontiguousarray(A.data, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(self.b, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(self.c, dtype=np.float64).tobytes())
        digest.update(repr((self.dims.free, self.dims.nonneg,
                            tuple(self.dims.psd))).encode("utf-8"))
        digest.update(self.layout.encode("utf-8"))
        return digest.hexdigest()

    @property
    def layout_kind(self) -> str:
        """Canonical cone-layout kind of the problem, for keyed solve counters.

        Problems built through the SOS layer carry a per-Gram-block layout
        tag (``"chordal:4[...],psd:6"``); the kind is the sorted set of
        distinct cone kinds joined with ``+`` (``"chordal+psd"``).  Problems without a
        layout tag report ``"psd"`` when they contain PSD blocks and
        ``"lp"`` otherwise.
        """
        if self.layout:
            kinds = sorted({part.split(":", 1)[0]
                            for part in self.layout.split(",") if part})
            return "+".join(kinds)
        return "psd" if self.dims.psd else "lp"

    def describe(self) -> str:
        return (f"ConicProblem({self.num_constraints} equalities, "
                f"{self.dims.describe()}, nnz(A)={self.A.nnz})")


class VariableBlock:
    """Handle to a block of variables allocated inside a builder."""

    __slots__ = ("kind", "offset", "size", "order", "name")

    def __init__(self, kind: str, offset: int, size: int, order: int = 0, name: str = ""):
        self.kind = kind          # "free" | "nonneg" | "psd"
        self.offset = offset      # filled in at finalisation for non-free blocks
        self.size = size          # number of scalar entries (svec length for psd)
        self.order = order        # matrix order for psd blocks
        self.name = name

    def indices(self) -> range:
        return range(self.offset, self.offset + self.size)

    def __repr__(self) -> str:
        return f"VariableBlock({self.kind}, name={self.name!r}, size={self.size})"


class _TripletBatch:
    """A bulk batch of equality rows recorded as per-block COO triplets."""

    __slots__ = ("row_base", "num_rows", "rhs", "entries")

    def __init__(self, row_base: int, num_rows: int, rhs: np.ndarray,
                 entries: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]):
        self.row_base = row_base
        self.num_rows = num_rows
        self.rhs = rhs
        self.entries = entries  # (block_id, local_rows, local_indices, values)


class ConicProblemBuilder:
    """Incrementally assemble a :class:`ConicProblem`.

    Blocks are allocated in any order; at :meth:`build` time they are laid out
    in the canonical order (free, nonneg, psd) and all recorded equality-row
    triplets are mapped to the final column indices in one vectorised pass.
    The built problem is cached until the builder is mutated again.
    """

    def __init__(self) -> None:
        self._free_blocks: List[VariableBlock] = []
        self._nonneg_blocks: List[VariableBlock] = []
        self._psd_blocks: List[VariableBlock] = []
        self._batches: List[_TripletBatch] = []
        self._num_rows: int = 0
        self._cost: Dict[Tuple[int, int], float] = {}
        self._blocks: List[VariableBlock] = []
        self._layout: str = ""
        self._built: Optional[ConicProblem] = None

    # -- block allocation ---------------------------------------------------
    def _register(self, block: VariableBlock) -> int:
        self._blocks.append(block)
        self._built = None
        return len(self._blocks) - 1

    def add_free_block(self, size: int, name: str = "") -> Tuple[int, VariableBlock]:
        if size <= 0:
            raise ValueError("free block size must be positive")
        block = VariableBlock("free", -1, size, name=name)
        self._free_blocks.append(block)
        return self._register(block), block

    def add_nonneg_block(self, size: int, name: str = "") -> Tuple[int, VariableBlock]:
        if size <= 0:
            raise ValueError("nonneg block size must be positive")
        block = VariableBlock("nonneg", -1, size, name=name)
        self._nonneg_blocks.append(block)
        return self._register(block), block

    def add_psd_block(self, order: int, name: str = "") -> Tuple[int, VariableBlock]:
        if order <= 0:
            raise ValueError("PSD block order must be positive")
        block = VariableBlock("psd", -1, svec_dim(order), order=order, name=name)
        self._psd_blocks.append(block)
        return self._register(block), block

    def add_gram_block(self, order: int, cone: str = "psd", name: str = "",
                       **cone_options):
        """Allocate the lifted variables of one Gram matrix under a cone.

        ``cone`` selects the Gram cone (``"psd"`` or ``"chordal"``; the
        relaxation name ``"sos"`` is accepted for ``"psd"``).  ``cone_options`` are forwarded to the handle — the
        ``chordal`` cone takes its correlative-sparsity edge set and
        clique-merge knobs this way.  Returns a
        :class:`~repro.sdp.gramcone.GramBlockHandle` whose
        ``entry_triplets`` lower symmetric Gram-entry coefficients onto the
        allocated blocks and whose ``matrix`` reconstructs the Gram matrix
        from a solution vector.
        """
        from .gramcone import make_gram_block

        return make_gram_block(self, order, cone=cone, name=name,
                               **cone_options)

    def set_layout(self, layout: str) -> None:
        """Tag the built problem with a cone-layout description.

        The tag enters :meth:`ConicProblem.fingerprint`, keeping problems
        lowered under different Gram-cone relaxations cache-distinct even
        when their numeric data coincides.
        """
        self._layout = str(layout)
        self._built = None

    # -- constraints and objective -------------------------------------------
    def add_equality_row(self, entries: Dict[Tuple[int, int], float], rhs: float) -> int:
        """Add a row ``sum coeff * x[block, local] = rhs``.

        ``entries`` maps ``(block_id, local_index)`` to a coefficient, where
        ``local_index`` indexes into the block's svec for PSD blocks.
        """
        cleaned = {key: float(val) for key, val in entries.items() if float(val) != 0.0}
        per_block: Dict[int, Tuple[List[int], List[float]]] = {}
        for (block_id, local), value in cleaned.items():
            locals_, values_ = per_block.setdefault(block_id, ([], []))
            locals_.append(local)
            values_.append(value)
        triplets = [
            (block_id,
             np.zeros(len(locals_), dtype=np.int64),
             np.asarray(locals_, dtype=np.int64),
             np.asarray(values_, dtype=float))
            for block_id, (locals_, values_) in per_block.items()
        ]
        return self.add_equality_rows(np.array([float(rhs)]), triplets)

    def add_equality_rows(
        self,
        rhs: np.ndarray,
        entries: Sequence[Tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    ) -> int:
        """Bulk-add ``len(rhs)`` equality rows from COO triplets.

        Each entry group is ``(block_id, rows, locals, values)`` where ``rows``
        are 0-based indices *within this batch* and ``locals`` index into the
        block (svec coordinates for PSD blocks).  Duplicate (row, column)
        triplets are summed at finalisation.  Returns the global index of the
        batch's first row.
        """
        rhs = np.asarray(rhs, dtype=float).ravel()
        groups: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for block_id, rows, locals_, values in entries:
            rows = np.asarray(rows, dtype=np.int64).ravel()
            locals_ = np.asarray(locals_, dtype=np.int64).ravel()
            values = np.asarray(values, dtype=float).ravel()
            if not (rows.shape == locals_.shape == values.shape):
                raise ValueError("triplet arrays must have identical lengths")
            if rows.size and (rows.min() < 0 or rows.max() >= rhs.shape[0]):
                raise IndexError("batch row index out of range")
            block = self._blocks[block_id]
            if locals_.size and (locals_.min() < 0 or locals_.max() >= block.size):
                raise IndexError(
                    f"local index out of range for block {block!r}"
                )
            groups.append((block_id, rows, locals_, values))
        base = self._num_rows
        self._batches.append(_TripletBatch(base, rhs.shape[0], rhs, groups))
        self._num_rows += rhs.shape[0]
        self._built = None
        return base

    def add_cost(self, block_id: int, local_index: int, coefficient: float) -> None:
        key = (block_id, local_index)
        self._cost[key] = self._cost.get(key, 0.0) + float(coefficient)
        self._built = None

    def psd_entry_local_index(self, block_id: int, i: int, j: int) -> Tuple[int, float]:
        """svec position and scaling of matrix entry (i, j) of a PSD block.

        The returned coefficient converts a *matrix-entry* coefficient into an
        svec coefficient: to add ``alpha * M_ij`` to a row, add
        ``alpha * coeff`` at the returned local index (``coeff`` is 1 for
        diagonal entries and ``1/sqrt(2)`` for off-diagonal entries, because
        the svec coordinate stores ``sqrt(2) * M_ij``).
        """
        block = self._blocks[block_id]
        if block.kind != "psd":
            raise ValueError("psd_entry_local_index called on a non-PSD block")
        if i > j:
            i, j = j, i
        order = block.order
        if not (0 <= i <= j < order):
            raise IndexError(f"entry ({i}, {j}) out of range for order-{order} block")
        # svec layout per row r: (r, r), (r, r+1), ..., (r, order-1); row r starts
        # after sum_{s<r} (order - s) entries.
        local = i * order - (i * (i - 1)) // 2 + (j - i)
        coeff = 1.0 if i == j else 1.0 / svec_entry_coefficient(i, j)
        return local, coeff

    # -- finalisation ---------------------------------------------------------
    def build(self) -> ConicProblem:
        if self._built is not None:
            return self._built
        offset = 0
        for block in self._free_blocks:
            block.offset = offset
            offset += block.size
        for block in self._nonneg_blocks:
            block.offset = offset
            offset += block.size
        for block in self._psd_blocks:
            block.offset = offset
            offset += block.size
        total = offset
        dims = ConeDims(
            free=sum(b.size for b in self._free_blocks),
            nonneg=sum(b.size for b in self._nonneg_blocks),
            psd=tuple(b.order for b in self._psd_blocks),
        )
        if dims.total != total:
            raise RuntimeError("internal error: block layout mismatch")

        block_offsets = np.array([b.offset for b in self._blocks], dtype=np.int64) \
            if self._blocks else np.zeros(0, dtype=np.int64)
        data_parts: List[np.ndarray] = []
        row_parts: List[np.ndarray] = []
        col_parts: List[np.ndarray] = []
        rhs_parts: List[np.ndarray] = []
        for batch in self._batches:
            rhs_parts.append(batch.rhs)
            for block_id, rows, locals_, values in batch.entries:
                row_parts.append(rows + batch.row_base)
                col_parts.append(locals_ + block_offsets[block_id])
                data_parts.append(values)
        data = np.concatenate(data_parts) if data_parts else np.zeros(0)
        row_idx = np.concatenate(row_parts) if row_parts else np.zeros(0, dtype=np.int64)
        col_idx = np.concatenate(col_parts) if col_parts else np.zeros(0, dtype=np.int64)
        A = sp.csr_matrix(
            (data, (row_idx, col_idx)), shape=(self._num_rows, total)
        )
        A.sum_duplicates()
        b = np.concatenate(rhs_parts) if rhs_parts else np.zeros(0)
        c = np.zeros(total)
        for (block_id, local), coeff in self._cost.items():
            block = self._blocks[block_id]
            c[block.offset + local] += coeff
        self._built = ConicProblem(c=c, A=A, b=b, dims=dims, layout=self._layout)
        return self._built

    # -- solution unpacking ----------------------------------------------------
    def block_value(self, block_id: int, x: np.ndarray) -> np.ndarray:
        """Extract a block's value from a stacked solution vector."""
        block = self._blocks[block_id]
        if block.offset < 0:
            raise RuntimeError("build() must be called before extracting block values")
        return np.asarray(x[block.offset:block.offset + block.size], dtype=float)

    def psd_block_matrix(self, block_id: int, x: np.ndarray) -> np.ndarray:
        from .cones import smat

        block = self._blocks[block_id]
        if block.kind != "psd":
            raise ValueError("psd_block_matrix called on a non-PSD block")
        return smat(self.block_value(block_id, x), block.order)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def blocks(self) -> Tuple[VariableBlock, ...]:
        return tuple(self._blocks)
