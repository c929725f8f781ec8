"""Gram-cone parameterisations of SOS certificates: PSD (SOS) and chordal.

A polynomial is certified nonnegative through a Gram representation
``p = z^T M z`` with the Gram matrix ``M`` constrained to a convex cone:

* ``psd`` — one order-``n`` PSD block (the exact Gram parameterisation).
* ``chordal`` — ``M = Σ_k E_k^T M_k E_k`` with one PSD block per maximal
  clique of a chordal extension of the constraint's correlative-sparsity
  graph (see :mod:`repro.sdp.chordal`).  Entries outside the extended
  pattern are structurally zero; by the Agler/Grone decomposition theorem
  the cone equals the patterned slice of the PSD cone, so the relaxation is
  *exact* for chordally-sparse problems while the per-iteration projection
  runs clique-sized eighs instead of one ``O(n^3)`` factorisation.  On a
  dense pattern the graph is complete, the single clique is the whole basis
  and the lowering degenerates to ``psd`` (with a distinct cache identity).

Each :class:`GramBlockHandle` allocates the lifted variables of one Gram
matrix inside a :class:`~repro.sdp.problem.ConicProblemBuilder` and exposes

* :meth:`~GramBlockHandle.entry_triplets` — the linear functional expressing
  a symmetric-weighted Gram entry in terms of the lifted variables, emitted
  as COO triplet groups for the bulk equality-row API of the builder,
* :meth:`~GramBlockHandle.matrix` — reconstruction of the full Gram matrix
  from a solution vector (used for certificate extraction and the
  ``is_numerically_sos`` check), and
* :meth:`~GramBlockHandle.structure_margin` — a structure-aware feasibility
  margin: the exact minimum eigenvalue for ``psd`` and, for ``chordal``, the
  summed negative part of the clique blocks' minimum eigenvalues — a lower
  bound on the true minimum eigenvalue, so a nonnegative margin certifies
  the decomposition itself, not just the assembled matrix.

A scenario picks one relaxation for its whole pipeline: ``sos`` (the PSD
cone) or ``chordal``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .chordal import (DEFAULT_MERGE_OVERLAP, DEFAULT_MERGE_SIZE,
                      chordal_decomposition)
from .cones import SQRT2

#: Supported Gram-cone kinds.
GRAM_CONES = ("psd", "chordal")

#: User-facing relaxation names (scenario specs, CLI, stage options).
RELAXATIONS = ("sos", "chordal")

#: Relaxation name -> Gram cone implementing it.
RELAXATION_CONES = {"sos": "psd", "chordal": "chordal"}


def normalize_gram_cone(cone: str) -> str:
    """The Gram-cone kind named by ``cone``: a kind of :data:`GRAM_CONES`
    or a relaxation name of :data:`RELAXATIONS` (``"sos"`` -> ``"psd"``)."""
    name = str(cone).lower()
    kind = RELAXATION_CONES.get(name, name)
    if kind not in GRAM_CONES:
        raise ValueError(
            f"unknown Gram cone {cone!r}; expected a relaxation in "
            f"{RELAXATIONS} or a cone in {GRAM_CONES}")
    return kind


#: The Gram cone implementing a stage's relaxation.
cone_for_relaxation = normalize_gram_cone


#: One COO triplet group consumed by ``ConicProblemBuilder.add_equality_rows``.
TripletGroup = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


class GramBlockHandle:
    """Handle to the lifted variables of one Gram matrix inside a builder."""

    #: Cone kind implemented by the handle (one of :data:`GRAM_CONES`).
    cone: str = ""

    def __init__(self, order: int, name: str = ""):
        if order <= 0:
            raise ValueError("Gram block order must be positive")
        self.order = int(order)
        self.name = name

    # -- lowering -----------------------------------------------------------
    def entry_triplets(self, rows: np.ndarray, i: np.ndarray, j: np.ndarray,
                       weight: np.ndarray) -> List[TripletGroup]:
        """COO triplet groups adding ``weight_k * M[i_k, j_k]`` to ``rows_k``.

        ``i <= j`` index the upper triangle of the Gram matrix and ``weight``
        already carries the symmetric-expansion multiplicity (1 on the
        diagonal, 2 off it), i.e. the coefficient of ``M_ij`` in the
        coefficient-matching row of the product monomial.
        """
        raise NotImplementedError

    # -- extraction ---------------------------------------------------------
    def matrix(self, builder, x: np.ndarray) -> np.ndarray:
        """Reconstruct the full Gram matrix from a stacked solution vector."""
        raise NotImplementedError

    def structure_margin(self, builder, x: np.ndarray) -> float:
        """Structure-aware feasibility margin (see module docstring)."""
        raise NotImplementedError

    # -- identity -----------------------------------------------------------
    @property
    def layout_tag(self) -> str:
        """Deterministic layout token of this block for the problem fingerprint.

        Joined (comma-separated) across a program's Gram blocks into
        :attr:`repro.sdp.problem.ConicProblem.layout`, so it must not contain
        ``","`` and must be a pure function of the block's structure — cones
        whose lowering depends on more than ``(cone, order)`` (chordal clique
        layouts) extend it.
        """
        return f"{self.cone}:{self.order}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(order={self.order}, name={self.name!r})"


class PSDGramBlock(GramBlockHandle):
    """The classical parameterisation: one order-``n`` PSD block."""

    cone = "psd"

    def __init__(self, builder, order: int, name: str = ""):
        super().__init__(order, name)
        self.block_id, _ = builder.add_psd_block(order, name=name)

    def entry_triplets(self, rows, i, j, weight) -> List[TripletGroup]:
        # svec layout per row r: (r, r), (r, r+1), ...; the svec coordinate
        # stores sqrt(2) * M_ij off the diagonal.
        locals_ = i * self.order - (i * (i - 1)) // 2 + (j - i)
        values = np.where(i == j, weight, weight / SQRT2)
        return [(self.block_id, np.asarray(rows, dtype=np.int64),
                 locals_.astype(np.int64), np.asarray(values, dtype=float))]

    def matrix(self, builder, x) -> np.ndarray:
        return builder.psd_block_matrix(self.block_id, x)

    def structure_margin(self, builder, x) -> float:
        gram = self.matrix(builder, x)
        if not gram.size:
            return 0.0
        return float(np.linalg.eigvalsh(0.5 * (gram + gram.T)).min())


@lru_cache(maxsize=512)
def _clique_cover_table(order: int, cliques: Tuple[Tuple[int, ...], ...]
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
    """CSR-style lookup from a Gram entry (i <= j) to its clique covers.

    Returns ``(indptr, cov_clique, cov_local, cov_scale)`` where the covers
    of entry ``(i, j)`` occupy ``slice(indptr[i*order+j], indptr[i*order+j+1])``
    of the ``cov_*`` arrays: the clique index, the svec-local position of the
    entry inside that clique's PSD block, and the matrix-entry -> svec
    coefficient (1 on the diagonal, 1/sqrt(2) off it).  Entries covered by no
    clique get an empty slice — they are structurally zero in the chordal
    parameterisation.
    """
    keys: List[int] = []
    cov_clique: List[int] = []
    cov_local: List[int] = []
    cov_scale: List[float] = []
    for k, clique in enumerate(cliques):
        size = len(clique)
        for a in range(size):
            for b in range(a, size):
                i, j = clique[a], clique[b]
                keys.append(i * order + j)
                cov_clique.append(k)
                cov_local.append(a * size - (a * (a - 1)) // 2 + (b - a))
                cov_scale.append(1.0 if a == b else 1.0 / SQRT2)
    keys_arr = np.asarray(keys, dtype=np.int64)
    sort = np.argsort(keys_arr, kind="stable")
    keys_arr = keys_arr[sort]
    indptr = np.zeros(order * order + 1, dtype=np.int64)
    np.add.at(indptr, keys_arr + 1, 1)
    indptr = np.cumsum(indptr)
    tables = (indptr,
              np.asarray(cov_clique, dtype=np.int64)[sort],
              np.asarray(cov_local, dtype=np.int64)[sort],
              np.asarray(cov_scale, dtype=float)[sort])
    for arr in tables:
        arr.setflags(write=False)
    return tables


class ChordalGramBlock(GramBlockHandle):
    """Chordal decomposition: one PSD block per clique, ``M = Σ E_k^T M_k E_k``.

    ``sparsity`` is the set of off-diagonal Gram entries (i, j) that may be
    nonzero — the edge set of the correlative-sparsity graph, typically
    derived by the SOS compiler from which basis products land in the
    constrained polynomial's support.  ``None`` means dense (a single clique,
    degenerating to one full PSD block).  The graph is chordally extended
    and its maximal cliques merged through :func:`repro.sdp.chordal.
    chordal_decomposition`; each clique becomes a PSD block and a Gram entry
    covered by several cliques is the *sum* of the matching block entries, so
    the overlap consensus is carried implicitly by the shared coefficient-
    matching equality rows, with no extra consensus rows in the problem.
    """

    cone = "chordal"

    def __init__(self, builder, order: int, name: str = "",
                 sparsity: Optional[Iterable[Tuple[int, int]]] = None,
                 merge_size: int = DEFAULT_MERGE_SIZE,
                 merge_overlap: float = DEFAULT_MERGE_OVERLAP):
        super().__init__(order, name)
        if sparsity is None:
            edges: List[Tuple[int, int]] = [(i, j) for i in range(order)
                                            for j in range(i + 1, order)]
        else:
            edges = [(int(i), int(j)) for i, j in sparsity]
        self.cliques: Tuple[Tuple[int, ...], ...] = chordal_decomposition(
            order, edges, merge_size=merge_size, merge_overlap=merge_overlap)
        self.block_ids: Tuple[int, ...] = tuple(
            builder.add_psd_block(len(clique), name=f"{name}[cl{k}]")[0]
            for k, clique in enumerate(self.cliques))

    @property
    def clique_sizes(self) -> Tuple[int, ...]:
        return tuple(len(clique) for clique in self.cliques)

    @property
    def layout_tag(self) -> str:
        # The full clique contents (not just sizes) enter the tag: two
        # different sparsity patterns must never share a cache identity or
        # pass the parametric structural-stability check by accident.
        body = ";".join(".".join(str(v) for v in clique)
                        for clique in self.cliques)
        return f"chordal:{self.order}[{body}]"

    def entry_triplets(self, rows, i, j, weight) -> List[TripletGroup]:
        rows = np.asarray(rows, dtype=np.int64)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        weight = np.asarray(weight, dtype=float)
        indptr, cov_clique, cov_local, cov_scale = \
            _clique_cover_table(self.order, self.cliques)
        keys = i * self.order + j
        starts = indptr[keys]
        counts = indptr[keys + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return []
        # Expand each entry into its covers (vectorised ragged gather):
        # entry e contributes counts[e] consecutive cover slots.
        entry_of = np.repeat(np.arange(keys.shape[0], dtype=np.int64), counts)
        cover_idx = np.repeat(starts, counts) + \
            (np.arange(total, dtype=np.int64)
             - np.repeat(np.cumsum(counts) - counts, counts))
        out_rows = rows[entry_of]
        out_values = weight[entry_of] * cov_scale[cover_idx]
        out_locals = cov_local[cover_idx]
        out_cliques = cov_clique[cover_idx]
        # One triplet group per touched clique block.
        order_idx = np.argsort(out_cliques, kind="stable")
        out_cliques = out_cliques[order_idx]
        out_rows, out_locals = out_rows[order_idx], out_locals[order_idx]
        out_values = out_values[order_idx]
        unique_cliques, group_starts = np.unique(out_cliques, return_index=True)
        bounds = np.append(group_starts, out_cliques.shape[0])
        return [(self.block_ids[k], out_rows[lo:hi], out_locals[lo:hi],
                 out_values[lo:hi])
                for k, lo, hi in zip(unique_cliques.tolist(),
                                     bounds[:-1].tolist(), bounds[1:].tolist())]

    def matrix(self, builder, x) -> np.ndarray:
        gram = np.zeros((self.order, self.order))
        for clique, block_id in zip(self.cliques, self.block_ids):
            idx = np.asarray(clique, dtype=np.int64)
            gram[np.ix_(idx, idx)] += builder.psd_block_matrix(block_id, x)
        return gram

    def structure_margin(self, builder, x) -> float:
        # M >= (sum_k min(lambda_min(M_k), 0)) * I: each clique block obeys
        # E_k^T M_k E_k >= min(lambda_min_k, 0) * E_k^T E_k >= min(..., 0) * I,
        # so the sound lower bound on lambda_min(M) is the *sum* of the
        # clipped per-block violations (0 when feasible).
        margins = []
        for block_id in self.block_ids:
            block = builder.psd_block_matrix(block_id, x)
            if block.size:
                margins.append(float(np.linalg.eigvalsh(
                    0.5 * (block + block.T)).min()))
        return float(sum(min(margin, 0.0) for margin in margins))


_GRAM_BLOCK_CLASSES = {
    "psd": PSDGramBlock,
    "chordal": ChordalGramBlock,
}


def make_gram_block(builder, order: int, cone: str = "psd",
                    name: str = "", **cone_options) -> GramBlockHandle:
    """Allocate the lifted variables of one Gram matrix inside ``builder``.

    ``cone_options`` are forwarded to the handle class of cones whose
    lowering takes structural inputs — for ``chordal`` these are
    ``sparsity`` (the correlative-sparsity edge set) and the
    ``merge_size``/``merge_overlap`` clique-merge knobs.  ``psd`` accepts no
    options.
    """
    cone = normalize_gram_cone(cone)
    return _GRAM_BLOCK_CLASSES[cone](builder, order, name=name, **cone_options)
