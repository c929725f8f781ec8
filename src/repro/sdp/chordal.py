"""Chordal decomposition of sparse symmetric matrix cones.

The classical sparse-SDP scale-up trick (Grone et al. / Agler et al.): a
symmetric matrix ``M`` whose nonzero pattern is a *chordal* graph is positive
semidefinite **iff** it splits as a sum of PSD matrices supported on the
maximal cliques of that graph::

    M  =  Σ_k  E_k^T  M_k  E_k,        M_k ⪰ 0,

where ``E_k`` selects the rows/columns of clique ``k``.  For the ADMM solver
this replaces one ``O(n^3)`` eigendecomposition per iteration with a handful
of clique-sized ones that the stacked projection of :mod:`repro.sdp.cones`
batches by size — *without* weakening the relaxation on chordally-sparse
problems.

This module holds the pure graph machinery; the conic lowering lives in
:class:`repro.sdp.gramcone.ChordalGramBlock`:

* :func:`chordal_decomposition` — greedy minimum-degree (min-fill tie-break)
  elimination of the sparsity graph, producing a perfect elimination ordering
  of a chordal extension, its maximal cliques, and a size/overlap-driven
  clique merge pass,
* :func:`clique_tree` — a maximum-weight spanning tree over clique
  intersections, which satisfies the running-intersection property for the
  cliques of a chordal graph (asserted by the test suite).

Everything is deterministic: ties break on vertex/clique index, so the same
sparsity pattern always yields the same clique layout — a requirement for the
layout tag entering :meth:`repro.sdp.problem.ConicProblem.fingerprint` and
for ``bind(θ)`` structural stability of parametric families.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

#: Default cap on the size of a merged clique.  Merging two overlapping
#: cliques trades a consensus overlap for one slightly larger eigh block;
#: past ~order 12 the cubic eigh cost outweighs the saved overlap work.
DEFAULT_MERGE_SIZE = 12

#: Default overlap ratio (``|C_i ∩ C_j| / min(|C_i|, |C_j|)``) above which
#: two cliques are merged regardless of :data:`DEFAULT_MERGE_SIZE` — almost
#: coincident cliques duplicate nearly every variable for no projection win.
DEFAULT_MERGE_OVERLAP = 0.75


def _normalized_edges(order: int,
                      edges: Iterable[Tuple[int, int]]) -> List[set]:
    """Adjacency sets of the sparsity graph (diagonal/self loops dropped)."""
    adjacency: List[set] = [set() for _ in range(order)]
    for i, j in edges:
        i, j = int(i), int(j)
        if not (0 <= i < order and 0 <= j < order):
            raise ValueError(
                f"sparsity edge ({i}, {j}) out of range for order {order}")
        if i == j:
            continue
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency


def _elimination_cliques(order: int, adjacency: List[set]) -> List[frozenset]:
    """Greedy min-degree elimination with a min-fill tie-break.

    Eliminating vertex ``v`` connects its remaining neighbours into a clique
    (the *fill*); the visited clique ``{v} ∪ N(v)`` of each elimination step
    is a clique of the resulting chordal extension, and the elimination order
    is a perfect elimination ordering of it.  Greedy minimum degree is the
    standard fast heuristic; the min-fill tie-break avoids the pathological
    fill of degree ties on grids/cycles.  Ties beyond that break on the
    vertex index, keeping the whole decomposition deterministic.
    """
    remaining = set(range(order))
    work = [set(nbrs) for nbrs in adjacency]
    cliques: List[frozenset] = []
    while remaining:
        best = None
        best_key = None
        for v in sorted(remaining):
            nbrs = work[v]
            degree = len(nbrs)
            fill = 0
            nbr_list = sorted(nbrs)
            for a_pos, a in enumerate(nbr_list):
                missing = [b for b in nbr_list[a_pos + 1:] if b not in work[a]]
                fill += len(missing)
            key = (degree, fill, v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        nbrs = work[best]
        cliques.append(frozenset({best} | nbrs))
        for a in nbrs:
            work[a] |= nbrs
            work[a].discard(a)
            work[a].discard(best)
        remaining.discard(best)
        work[best] = set()
        for other in remaining:
            work[other].discard(best)
    return cliques


def _maximal_cliques(cliques: Sequence[frozenset]) -> List[frozenset]:
    """Drop elimination cliques contained in another (keeps the maximal ones)."""
    ordered = sorted(set(cliques), key=lambda c: (-len(c), sorted(c)))
    maximal: List[frozenset] = []
    for clique in ordered:
        if not any(clique < kept for kept in maximal):
            maximal.append(clique)
    return maximal


def _merge_cliques(cliques: List[frozenset], merge_size: int,
                   merge_overlap: float) -> List[frozenset]:
    """Greedy size/overlap clique merging.

    Repeatedly merges the *overlapping* pair of cliques with the largest
    intersection, provided the union stays within ``merge_size`` *or* the
    overlap ratio ``|C_i ∩ C_j| / min(|C_i|, |C_j|)`` reaches
    ``merge_overlap``; disjoint cliques never merge (batched projection
    handles separate blocks natively — merging would only grow the eigh).
    Small
    highly-overlapping cliques cost more in consensus bookkeeping than the
    slightly larger merged eigh block; large disjoint-ish cliques stay split
    so the projection keeps its batched small-block shape.
    """
    merged = [set(c) for c in cliques]
    while len(merged) > 1:
        best_pair = None
        best_key = None
        for a in range(len(merged)):
            for b in range(a + 1, len(merged)):
                overlap = len(merged[a] & merged[b])
                if overlap == 0:
                    continue  # disjoint blocks: merging only grows the eigh
                union = len(merged[a] | merged[b])
                small = min(len(merged[a]), len(merged[b]))
                allowed = union <= merge_size or overlap / small >= merge_overlap
                if not allowed:
                    continue
                key = (-overlap, union, a, b)
                if best_key is None or key < best_key:
                    best_key, best_pair = key, (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        merged[a] |= merged[b]
        del merged[b]
        # Re-run maximality: the merged clique may now absorb others.
        merged = [set(c) for c in _maximal_cliques(
            [frozenset(c) for c in merged])]
    return [frozenset(c) for c in merged]


def chordal_decomposition(order: int,
                          edges: Iterable[Tuple[int, int]],
                          merge_size: int = DEFAULT_MERGE_SIZE,
                          merge_overlap: float = DEFAULT_MERGE_OVERLAP,
                          ) -> Tuple[Tuple[int, ...], ...]:
    """Cliques of a chordal extension of the sparsity graph, merged and sorted.

    ``edges`` are (i, j) index pairs of potentially-nonzero off-diagonal
    entries (order and duplicates are irrelevant; self loops are ignored —
    every diagonal entry is always representable).  Vertices touched by no
    edge become singleton cliques, so the union of cliques always covers
    ``range(order)`` and every input edge lies inside at least one clique.

    Returns a tuple of cliques, each a sorted tuple of vertex indices; the
    clique list itself is sorted (by size descending, then lexicographic) so
    the output — and everything derived from it, layout tags included — is a
    pure function of the sparsity pattern.
    """
    if order <= 0:
        raise ValueError("chordal decomposition needs a positive order")
    adjacency = _normalized_edges(order, edges)
    cliques = _maximal_cliques(_elimination_cliques(order, adjacency))
    if merge_size > 1 or merge_overlap < 1.0:
        cliques = _merge_cliques(cliques, int(merge_size), float(merge_overlap))
    as_tuples = [tuple(sorted(c)) for c in cliques]
    as_tuples.sort(key=lambda c: (-len(c), c))
    covered = set()
    for clique in as_tuples:
        covered.update(clique)
    if covered != set(range(order)):
        raise RuntimeError("internal error: cliques do not cover all vertices")
    return tuple(as_tuples)


def clique_tree(cliques: Sequence[Sequence[int]]
                ) -> Tuple[Tuple[int, int], ...]:
    """Maximum-weight spanning tree over clique-intersection sizes.

    For the maximal cliques of a chordal graph this tree satisfies the
    running-intersection property: for any two cliques ``C_a``/``C_b``,
    their intersection is contained in every clique on the tree path between
    them.  Returned as ``(parent, child)`` index pairs (empty for a single
    clique); disconnected components are joined with weight-0 edges so the
    result is always a spanning tree.
    """
    sets = [set(c) for c in cliques]
    n = len(sets)
    if n <= 1:
        return ()
    in_tree = {0}
    edges: List[Tuple[int, int]] = []
    while len(in_tree) < n:
        best = None
        best_key = None
        for a in sorted(in_tree):
            for b in range(n):
                if b in in_tree:
                    continue
                key = (-len(sets[a] & sets[b]), a, b)
                if best_key is None or key < best_key:
                    best_key, best = key, (a, b)
        assert best is not None
        edges.append(best)
        in_tree.add(best[1])
    return tuple(edges)
