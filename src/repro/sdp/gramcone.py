"""Pluggable Gram-cone relaxations: PSD (SOS), chordal, SDD (SDSOS), DD (DSOS).

A polynomial is certified nonnegative through a Gram representation
``p = z^T M z`` with the Gram matrix ``M`` constrained to a convex cone.
The classical choice is the PSD cone (full SOS); the DSOS/SDSOS hierarchy of
Ahmadi & Majumdar replaces it with the cones of diagonally-dominant and
scaled-diagonally-dominant matrices::

    DD(n)  ⊂  SDD(n)  ⊂  chordal(n; G)  ⊆  PSD(n)

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
* ``sdd`` — ``M = Σ_{i<j} E_ij M_ij E_ij^T`` with each ``M_ij`` a 2x2 PSD
  block.  The stacked-``eigh`` batcher of :mod:`repro.sdp.cones` projects all
  equal-size 2x2 blocks in one call, so the per-iteration cost of the ADMM
  solver collapses from one ``O(n^3)`` eigendecomposition to a batched
  closed-form-sized factorisation.  (SDD is the chordal decomposition of the
  *complete* pair cover — every edge its own clique — hence the inclusion
  above.)
* ``dd`` — ``M_ii >= Σ_{j≠i} |M_ij|`` lowered to pure LP rows: off-diagonals
  split as ``M_ij = p_ij - q_ij`` with ``p, q >= 0`` and diagonals as
  ``M_ii = s_i + Σ_{j≠i} (p_ij + q_ij)`` with slack ``s_i >= 0``, so every
  matrix reachable by the variables is diagonally dominant by construction
  (and conversely every DD matrix is reachable).

Each :class:`GramBlockHandle` allocates the lifted variables of one Gram
matrix inside a :class:`~repro.sdp.problem.ConicProblemBuilder` and exposes

* :meth:`~GramBlockHandle.entry_triplets` — the linear functional expressing
  a symmetric-weighted Gram entry in terms of the lifted variables, emitted
  as COO triplet groups for the bulk equality-row API of the builder,
* :meth:`~GramBlockHandle.matrix` — reconstruction of the full Gram matrix
  from a solution vector (used for certificate extraction and the
  cone-agnostic ``is_numerically_sos`` check), and
* :meth:`~GramBlockHandle.structure_margin` — a structure-aware feasibility
  margin: the exact minimum eigenvalue for ``psd``, the summed negative
  part of the 2x2 pair-block eigenvalues for ``sdd`` and the Gershgorin
  dominance margin ``min_i (M_ii - Σ_{j≠i} |M_ij|)`` for ``dd``.  Both
  DD/SDD margins are lower bounds on the true minimum eigenvalue, so a
  nonnegative margin certifies the decomposition itself, not just the
  assembled matrix.

The user-facing relaxation names map onto the cones as
``dsos -> dd``, ``sdsos -> sdd``, ``chordal -> chordal``, ``sos -> psd``;
``auto`` is the escalation ladder ``dsos -> sdsos -> chordal -> sos`` (try
cheap, validate, escalate on failure — chordal sits between SDSOS and the
monolithic PSD block because it is exact on sparse problems but still a
restriction when the pattern is an artifact of missing cross terms).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .chordal import (DEFAULT_MERGE_OVERLAP, DEFAULT_MERGE_SIZE,
                      chordal_decomposition)
from .cones import SQRT2

#: Supported Gram-cone kinds, cheapest first.
GRAM_CONES = ("dd", "sdd", "chordal", "psd")

#: User-facing relaxation names (scenario specs, CLI, stage options).
RELAXATIONS = ("dsos", "sdsos", "chordal", "sos", "auto")

#: Relaxation name -> Gram cone implementing it.
RELAXATION_CONES = {"dsos": "dd", "sdsos": "sdd", "chordal": "chordal",
                    "sos": "psd"}

#: The ``auto`` escalation ladder, cheapest relaxation first.
AUTO_LADDER = ("dsos", "sdsos", "chordal", "sos")


def normalize_gram_cone(cone: str) -> str:
    """Validate a Gram-cone kind (accepting relaxation aliases)."""
    cone = str(cone).lower()
    cone = RELAXATION_CONES.get(cone, cone)
    if cone not in GRAM_CONES:
        raise ValueError(
            f"unknown Gram cone {cone!r}; expected one of {GRAM_CONES} "
            f"(or a relaxation name in {RELAXATIONS[:-1]})")
    return cone


def cone_for_relaxation(relaxation: str) -> str:
    """The Gram cone implementing one (non-``auto``) relaxation level."""
    relaxation = str(relaxation).lower()
    if relaxation == "auto":
        raise ValueError(
            "'auto' is an escalation ladder, not a single cone; iterate "
            "relaxation_ladder('auto') instead")
    if relaxation in GRAM_CONES:
        return relaxation
    try:
        return RELAXATION_CONES[relaxation]
    except KeyError:
        raise ValueError(
            f"unknown relaxation {relaxation!r}; expected one of {RELAXATIONS}"
        ) from None


def relaxation_ladder(relaxation: str) -> Tuple[str, ...]:
    """The sequence of relaxations to attempt for a requested level.

    ``"auto"`` expands to the full DSOS -> SDSOS -> SOS escalation ladder;
    any concrete level is a one-element ladder.
    """
    relaxation = str(relaxation).lower()
    if relaxation == "auto":
        return AUTO_LADDER
    cone_for_relaxation(relaxation)  # validation
    return (relaxation,)


@lru_cache(maxsize=256)
def _pair_table(order: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle pair enumeration of one Gram order.

    Returns ``(pair_a, pair_b, index)`` where ``pair_a[p] < pair_b[p]`` walk
    the strict upper triangle row-major and ``index`` is an
    ``(order, order)`` symmetric lookup from an entry to its pair position
    (-1 on the diagonal).
    """
    pair_a, pair_b = np.triu_indices(order, k=1)
    index = np.full((order, order), -1, dtype=np.int64)
    index[pair_a, pair_b] = np.arange(pair_a.shape[0])
    index[pair_b, pair_a] = index[pair_a, pair_b]
    for arr in (pair_a, pair_b, index):
        arr.setflags(write=False)
    return pair_a, pair_b, index


#: One COO triplet group consumed by ``ConicProblemBuilder.add_equality_rows``.
TripletGroup = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


def _split_diag_entries(order: int, rows: np.ndarray, i: np.ndarray,
                        j: np.ndarray, weight: np.ndarray):
    """Split Gram entries into off-diagonal and expanded diagonal triplets.

    Both DD and SDD spread each diagonal entry ``M_aa`` over the ``order-1``
    pairs containing ``a``; this helper vectorises that expansion.  Returns
    ``(off_rows, off_pairs, off_weight, diag_rows, diag_a, diag_c,
    diag_pairs, diag_weight)`` where the ``diag_*`` arrays enumerate one
    element per (diagonal entry, partner ``c != a``) combination and
    ``*_pairs`` index into the pair enumeration of :func:`_pair_table`.
    """
    _, _, pair_index = _pair_table(order)
    off = i != j
    off_rows = rows[off]
    off_pairs = pair_index[i[off], j[off]]
    off_weight = weight[off]

    diag = ~off
    a = i[diag]
    partners = np.broadcast_to(np.arange(order), (a.size, order))
    keep = partners != a[:, None]
    diag_c = partners[keep]
    diag_a = np.repeat(a, order - 1)
    diag_rows = np.repeat(rows[diag], order - 1)
    diag_weight = np.repeat(weight[diag], order - 1)
    diag_pairs = pair_index[diag_a, diag_c]
    return (off_rows, off_pairs, off_weight,
            diag_rows, diag_a, diag_c, diag_pairs, diag_weight)


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
    matching equality rows — the same sum-splitting the SDD lowering uses for
    its diagonals, with no extra consensus rows in the problem.
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
        # so — exactly as for SDD — the sound lower bound on lambda_min(M) is
        # the *sum* of the clipped per-block violations (0 when feasible).
        margins = []
        for block_id in self.block_ids:
            block = builder.psd_block_matrix(block_id, x)
            if block.size:
                margins.append(float(np.linalg.eigvalsh(
                    0.5 * (block + block.T)).min()))
        return float(sum(min(margin, 0.0) for margin in margins))


class SDDGramBlock(GramBlockHandle):
    """Scaled diagonal dominance: a sum of 2x2 PSD blocks, one per pair."""

    cone = "sdd"

    def __init__(self, builder, order: int, name: str = ""):
        super().__init__(order, name)
        if order == 1:
            # No pairs: an SDD 1x1 matrix is just a nonnegative scalar.
            self.scalar_id, _ = builder.add_nonneg_block(1, name=f"{name}[sdd]")
            self.pair_ids: Tuple[int, ...] = ()
        else:
            pair_a, pair_b, _ = _pair_table(order)
            self.scalar_id = -1
            self.pair_ids = tuple(
                builder.add_psd_block(2, name=f"{name}[{a},{b}]")[0]
                for a, b in zip(pair_a.tolist(), pair_b.tolist()))

    def entry_triplets(self, rows, i, j, weight) -> List[TripletGroup]:
        rows = np.asarray(rows, dtype=np.int64)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        weight = np.asarray(weight, dtype=float)
        if self.order == 1:
            return [(self.scalar_id, rows, np.zeros(rows.shape[0], dtype=np.int64),
                     weight)]
        # 2x2 svec layout: [m11, sqrt2*m12, m22] -> locals 0, 1, 2.  An
        # off-diagonal entry is the m12 of its pair block; a diagonal entry
        # M_aa is the sum over the pairs containing ``a`` of the matching
        # diagonal of their 2x2 block.
        (off_rows, off_pairs, off_weight,
         diag_rows, diag_a, diag_c, diag_pairs, diag_weight) = \
            _split_diag_entries(self.order, rows, i, j, weight)
        pairs = np.concatenate([off_pairs, diag_pairs])
        all_rows = np.concatenate([off_rows, diag_rows])
        locals_ = np.concatenate([np.ones(off_rows.shape[0], dtype=np.int64),
                                  np.where(diag_a < diag_c, 0, 2)])
        values = np.concatenate([off_weight / SQRT2, diag_weight])
        # One triplet group per touched 2x2 block.
        order_idx = np.argsort(pairs, kind="stable")
        pairs, all_rows = pairs[order_idx], all_rows[order_idx]
        locals_, values = locals_[order_idx], values[order_idx]
        unique_pairs, starts = np.unique(pairs, return_index=True)
        bounds = np.append(starts, pairs.shape[0])
        return [(self.pair_ids[pair], all_rows[lo:hi], locals_[lo:hi],
                 values[lo:hi])
                for pair, lo, hi in zip(unique_pairs.tolist(),
                                        bounds[:-1].tolist(), bounds[1:].tolist())]

    def matrix(self, builder, x) -> np.ndarray:
        gram = np.zeros((self.order, self.order))
        if self.order == 1:
            gram[0, 0] = builder.block_value(self.scalar_id, x)[0]
            return gram
        pair_a, pair_b, _ = _pair_table(self.order)
        for a, b, block_id in zip(pair_a.tolist(), pair_b.tolist(), self.pair_ids):
            block = builder.psd_block_matrix(block_id, x)
            gram[a, a] += block[0, 0]
            gram[b, b] += block[1, 1]
            gram[a, b] += block[0, 1]
            gram[b, a] += block[0, 1]
        return gram

    def structure_margin(self, builder, x) -> float:
        if self.order == 1:
            return float(builder.block_value(self.scalar_id, x)[0])
        # Closed-form minimum eigenvalue of each 2x2 block [[a, c], [c, b]].
        # Negative block eigenvalues on pairs sharing a diagonal index add up
        # in the assembled matrix (B_ij >= lmin_ij * I2 gives
        # M >= (sum_ij min(lmin_ij, 0)) * I), so the sound lower bound on
        # lambda_min(M) is the *sum* of the clipped violations, not their
        # minimum; it is 0 for an exactly feasible decomposition.
        margins = []
        for block_id in self.pair_ids:
            block = builder.psd_block_matrix(block_id, x)
            a, b, c = block[0, 0], block[1, 1], block[0, 1]
            margins.append(0.5 * (a + b) - np.hypot(0.5 * (a - b), c))
        return float(sum(min(margin, 0.0) for margin in margins))


class DDGramBlock(GramBlockHandle):
    """Diagonal dominance lowered to nonnegative (LP) variables only."""

    cone = "dd"

    def __init__(self, builder, order: int, name: str = ""):
        super().__init__(order, name)
        self.slack_id, _ = builder.add_nonneg_block(order, name=f"{name}[dd:s]")
        if order >= 2:
            num_pairs = order * (order - 1) // 2
            self.pos_id, _ = builder.add_nonneg_block(num_pairs, name=f"{name}[dd:p]")
            self.neg_id, _ = builder.add_nonneg_block(num_pairs, name=f"{name}[dd:q]")
        else:
            self.pos_id = self.neg_id = -1

    def entry_triplets(self, rows, i, j, weight) -> List[TripletGroup]:
        rows = np.asarray(rows, dtype=np.int64)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        weight = np.asarray(weight, dtype=float)
        diag = i == j
        # M_aa = s_a + sum of the |off-diagonal| budgets (p + q) of row a;
        # M_ab = p_ab - q_ab.
        groups: List[TripletGroup] = [
            (self.slack_id, rows[diag], i[diag], weight[diag])]
        if self.order >= 2:
            (off_rows, off_pairs, off_weight,
             diag_rows, _, _, diag_pairs, diag_weight) = \
                _split_diag_entries(self.order, rows, i, j, weight)
            pos_rows = np.concatenate([off_rows, diag_rows])
            pos_pairs = np.concatenate([off_pairs, diag_pairs])
            groups.append((self.pos_id, pos_rows, pos_pairs,
                           np.concatenate([off_weight, diag_weight])))
            groups.append((self.neg_id, pos_rows, pos_pairs,
                           np.concatenate([-off_weight, diag_weight])))
        return [group for group in groups if group[1].shape[0]]

    def matrix(self, builder, x) -> np.ndarray:
        slack = builder.block_value(self.slack_id, x)
        gram = np.diag(slack.copy())
        if self.order >= 2:
            pos = builder.block_value(self.pos_id, x)
            neg = builder.block_value(self.neg_id, x)
            pair_a, pair_b, _ = _pair_table(self.order)
            off = pos - neg
            budget = pos + neg
            gram[pair_a, pair_b] = off
            gram[pair_b, pair_a] = off
            np.add.at(gram, (pair_a, pair_a), budget)
            np.add.at(gram, (pair_b, pair_b), budget)
        return gram

    def structure_margin(self, builder, x) -> float:
        gram = self.matrix(builder, x)
        off_sums = np.abs(gram).sum(axis=1) - np.abs(np.diag(gram))
        return float((np.diag(gram) - off_sums).min())


_GRAM_BLOCK_CLASSES = {
    "psd": PSDGramBlock,
    "chordal": ChordalGramBlock,
    "sdd": SDDGramBlock,
    "dd": DDGramBlock,
}


def make_gram_block(builder, order: int, cone: str = "psd",
                    name: str = "", **cone_options) -> GramBlockHandle:
    """Allocate the lifted variables of one Gram matrix inside ``builder``.

    ``cone_options`` are forwarded to the handle class of cones whose
    lowering takes structural inputs — for ``chordal`` these are
    ``sparsity`` (the correlative-sparsity edge set) and the
    ``merge_size``/``merge_overlap`` clique-merge knobs.  Other cones accept
    no options.
    """
    cone = normalize_gram_cone(cone)
    return _GRAM_BLOCK_CLASSES[cone](builder, order, name=name, **cone_options)
