"""Chordal Gram decomposition: graph machinery, clique-tree structure, the
bucketed mixed-size PSD projection, the ``chordal`` Gram-cone lowering and
its cache/fingerprint hygiene, parametric layout stability, and the metrics
plumbing of ``solved:chordal`` counters.

The exactness tests exploit the Grone/Agler theorem: a matrix supported on a
chordal pattern is PSD iff it splits into clique-supported PSD summands, so
on *quadratic forms* (unique Gram matrix) the chordal relaxation certifies
exactly the same polynomials as the monolithic PSD cone.
"""

import numpy as np
import pytest

from repro.engine.metrics import engine_metrics, render_prometheus
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.sdp import (
    ChordalGramBlock,
    ConeDims,
    ConicProblemBuilder,
    chordal_decomposition,
    clique_tree,
    make_gram_block,
    project_onto_cone_many,
    project_psd_svec,
    solve_conic_problem,
    svec_dim,
)
from repro.sdp.backend import NumpyBackend
from repro.sdp.context import SolveContext
from repro.sos import SOSProgram
from repro.sos.parametric import ParametricSOSProgram


def _variables(*names):
    return VariableVector(make_variables(*names))


def _quadratic_form(matrix):
    """The quadratic form ``z^T M z`` over fresh variables (unique Gram)."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    variables = _variables(*[f"x{i}" for i in range(n)])
    polys = [Polynomial.from_variable(variables[i], variables) for i in range(n)]
    total = Polynomial.zero(variables)
    for i in range(n):
        for j in range(n):
            if matrix[i, j]:
                total = total + polys[i] * polys[j] * float(matrix[i, j])
    return total


def _tridiagonal(n, off):
    """Tridiagonal unit-diagonal matrix; eigenvalues 1 + 2*off*cos(k pi/(n+1))."""
    matrix = np.eye(n)
    for i in range(n - 1):
        matrix[i, i + 1] = matrix[i + 1, i] = off
    return matrix


def _random_edges(order, density, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(order):
        for j in range(i + 1, order):
            if rng.random() < density:
                edges.append((i, j))
    return edges


# ----------------------------------------------------------------------
# Graph machinery
# ----------------------------------------------------------------------
class TestChordalDecomposition:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("density", [0.1, 0.3, 0.7])
    def test_cliques_cover_vertices_and_edges(self, seed, density):
        order = 12
        edges = _random_edges(order, density, seed)
        cliques = chordal_decomposition(order, edges)
        covered = set()
        for clique in cliques:
            covered.update(clique)
        assert covered == set(range(order))
        clique_sets = [set(c) for c in cliques]
        for i, j in edges:
            assert any({i, j} <= c for c in clique_sets), \
                f"edge ({i}, {j}) not inside any clique"

    def test_deterministic_under_edge_permutation(self):
        order = 10
        edges = _random_edges(order, 0.4, seed=7)
        reference = chordal_decomposition(order, edges)
        rng = np.random.default_rng(3)
        for _ in range(5):
            shuffled = [edges[k] for k in rng.permutation(len(edges))]
            flipped = [(j, i) for i, j in shuffled]
            assert chordal_decomposition(order, flipped) == reference

    def test_path_graph_respects_merge_cap(self):
        order = 20
        edges = [(i, i + 1) for i in range(order - 1)]
        cliques = chordal_decomposition(order, edges, merge_size=4,
                                        merge_overlap=1.0)
        assert max(len(c) for c in cliques) <= 4
        assert len(cliques) > 1
        covered = set()
        for clique in cliques:
            covered.update(clique)
        assert covered == set(range(order))

    def test_disjoint_components_never_merge(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        cliques = chordal_decomposition(6, edges)  # default knobs
        assert sorted(cliques) == [(0, 1, 2), (3, 4, 5)]

    def test_dense_pattern_single_clique(self):
        order = 5
        edges = [(i, j) for i in range(order) for j in range(i + 1, order)]
        assert chordal_decomposition(order, edges) == (tuple(range(order)),)

    def test_isolated_vertices_become_singletons(self):
        cliques = chordal_decomposition(4, [(1, 2)])
        assert (0,) in cliques and (3,) in cliques and (1, 2) in cliques

    def test_cycle_gets_chordal_fill(self):
        # A 4-cycle is not chordal; elimination adds one fill edge, giving
        # two triangles sharing an edge (with merging disabled).
        cliques = chordal_decomposition(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                                        merge_size=1, merge_overlap=1.0)
        assert len(cliques) == 2
        assert all(len(c) == 3 for c in cliques)

    def test_bad_inputs_raise(self):
        with pytest.raises(ValueError):
            chordal_decomposition(0, [])
        with pytest.raises(ValueError):
            chordal_decomposition(3, [(0, 5)])


class TestCliqueTree:
    @staticmethod
    def _tree_paths(n, edges):
        """All-pairs tree paths as vertex lists (tree is small: BFS per pair)."""
        adjacency = {k: set() for k in range(n)}
        for a, b in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        paths = {}
        for root in range(n):
            stack = [(root, [root])]
            while stack:
                node, path = stack.pop()
                paths[(root, node)] = path
                for nxt in adjacency[node]:
                    if nxt not in path:
                        stack.append((nxt, path + [nxt]))
        return paths

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 9])
    def test_running_intersection_property(self, seed):
        order = 11
        edges = _random_edges(order, 0.3, seed)
        # Merging disabled: RIP is the classical guarantee for the maximal
        # cliques of the chordal extension itself.
        cliques = chordal_decomposition(order, edges, merge_size=1,
                                        merge_overlap=1.0)
        tree = clique_tree(cliques)
        n = len(cliques)
        assert len(tree) == n - 1 if n > 1 else tree == ()
        sets = [set(c) for c in cliques]
        paths = self._tree_paths(n, tree)
        for a in range(n):
            for b in range(a + 1, n):
                shared = sets[a] & sets[b]
                if not shared:
                    continue
                for node in paths[(a, b)]:
                    assert shared <= sets[node], \
                        f"RIP violated on path {a}->{b} at clique {node}"

    def test_single_clique_has_empty_tree(self):
        assert clique_tree([(0, 1, 2)]) == ()

    def test_tree_is_deterministic(self):
        cliques = chordal_decomposition(9, _random_edges(9, 0.4, seed=2),
                                        merge_size=1, merge_overlap=1.0)
        assert clique_tree(cliques) == clique_tree(cliques)


# ----------------------------------------------------------------------
# Mixed-size bucketed projection (one stacked eigh per distinct order)
# ----------------------------------------------------------------------
@pytest.fixture()
def eigh_calls(monkeypatch):
    """Shapes of every stacked eigh the cone projection makes."""
    calls = []
    original = NumpyBackend.eigh

    def counting_eigh(self, matrices):
        calls.append(tuple(np.shape(matrices)))
        return original(self, matrices)

    monkeypatch.setattr(NumpyBackend, "eigh", counting_eigh)
    return calls


class TestBucketedMixedSizeProjection:
    def test_one_eigh_per_distinct_order(self, eigh_calls):
        dims = ConeDims(free=2, nonneg=3, psd=(3, 5, 3, 5, 4))
        total = dims.total
        rng = np.random.default_rng(0)
        points = rng.normal(size=(6, total))
        projected = project_onto_cone_many(points, dims)
        # Orders 3, 4 and 5 each take exactly ONE stacked eigh, regardless of
        # how many blocks share the order or how the orders interleave.
        assert len(eigh_calls) == 3
        batch_shapes = sorted(eigh_calls)
        # 2 blocks of order 3 and 5 across 6 points -> 12 stacked matrices.
        assert batch_shapes == [(6, 4, 4), (12, 3, 3), (12, 5, 5)]
        # And the result matches the per-block reference projection.
        offset = dims.free
        expected = points.copy()
        expected[:, offset:offset + dims.nonneg] = np.maximum(
            points[:, offset:offset + dims.nonneg], 0.0)
        offset += dims.nonneg
        for order in dims.psd:
            width = svec_dim(order)
            for row in range(points.shape[0]):
                expected[row, offset:offset + width], _ = project_psd_svec(
                    points[row, offset:offset + width], order)
            offset += width
        np.testing.assert_allclose(projected, expected, atol=1e-9)

    def test_order_two_blocks_use_closed_form_not_eigh(self, eigh_calls):
        dims = ConeDims(free=0, nonneg=0, psd=(2, 2, 2))
        points = np.random.default_rng(1).normal(size=(4, dims.total))
        project_onto_cone_many(points, dims)
        assert eigh_calls == []


# ----------------------------------------------------------------------
# Chordal Gram-cone lowering
# ----------------------------------------------------------------------
class TestChordalGramLowering:
    def test_clique_blocks_and_layout_tag(self):
        builder = ConicProblemBuilder()
        sparsity = [(0, 1), (1, 2), (2, 3)]
        handle = make_gram_block(builder, 4, cone="chordal", name="g",
                                 sparsity=sparsity, merge_size=3,
                                 merge_overlap=1.0)
        assert isinstance(handle, ChordalGramBlock)
        assert handle.cliques == ((0, 1, 2), (2, 3))
        assert handle.clique_sizes == (3, 2)
        assert handle.layout_tag == "chordal:4[0.1.2;2.3]"

    def test_dense_sparsity_defaults_to_single_clique(self):
        builder = ConicProblemBuilder()
        handle = make_gram_block(builder, 3, cone="chordal", name="g")
        assert handle.cliques == ((0, 1, 2),)

    @pytest.mark.parametrize("merge_size", [2, 3, 12])
    def test_reconstruction_pins_banded_target(self, merge_size):
        """Pin every representable Gram entry to a banded PSD target and check
        the clique-split handle reassembles exactly that matrix."""
        order = 5
        target = _tridiagonal(order, 0.45)
        sparsity = [(i, i + 1) for i in range(order - 1)]
        builder = ConicProblemBuilder()
        handle = make_gram_block(builder, order, cone="chordal", name="g",
                                 sparsity=sparsity, merge_size=merge_size,
                                 merge_overlap=1.0)
        rows, i_idx, j_idx, rhs = [], [], [], []
        r = 0
        for i in range(order):
            for j in range(i, order):
                if i != j and abs(i - j) > 1:
                    continue  # outside the pattern: structurally zero
                rows.append(r)
                i_idx.append(i)
                j_idx.append(j)
                rhs.append(target[i, j])
                r += 1
        triplets = handle.entry_triplets(
            np.asarray(rows), np.asarray(i_idx), np.asarray(j_idx),
            np.ones(len(rows)))
        builder.add_equality_rows(np.asarray(rhs), triplets)
        problem = builder.build()
        result = solve_conic_problem(problem, max_iterations=8000,
                                     eps_abs=1e-8, eps_rel=1e-8)
        assert result.status.is_success
        gram = handle.matrix(builder, result.x)
        np.testing.assert_allclose(gram, target, atol=5e-4)
        assert handle.structure_margin(builder, result.x) >= -1e-6

    def test_out_of_pattern_entries_have_no_triplets(self):
        builder = ConicProblemBuilder()
        handle = make_gram_block(builder, 4, cone="chordal", name="g",
                                 sparsity=[(0, 1), (2, 3)])
        triplets = handle.entry_triplets(np.asarray([0]), np.asarray([0]),
                                         np.asarray([3]), np.ones(1))
        assert triplets == [] or all(len(t[1]) == 0 for t in triplets)

    @pytest.mark.parametrize("off,certifies", [(0.45, True), (0.62, False)])
    def test_chordal_certifies_exactly_like_psd(self, off, certifies):
        """Tridiagonal quadratic forms: chordal and monolithic PSD agree on
        membership in both directions (Grone/Agler exactness)."""
        poly = _quadratic_form(_tridiagonal(6, off))
        outcomes = {}
        for cone in ("chordal", "psd"):
            program = SOSProgram(name=f"exact_{cone}_{off}", default_cone=cone)
            program.add_sos_constraint(poly, name="c")
            solution = program.solve(max_iterations=8000)
            outcomes[cone] = solution
        assert outcomes["chordal"].is_success == certifies
        assert outcomes["psd"].is_success == certifies
        if certifies:
            cert = outcomes["chordal"].certificates["c"]
            assert cert.cone == "chordal"
            # The reconstructed FULL Gram matrix of the clique-split
            # certificate is numerically SOS (acceptance criterion).
            assert cert.is_numerically_sos(eig_tol=-1e-6, res_tol=1e-4)
            assert cert.structure_margin is not None
            assert cert.structure_margin >= -1e-6
            assert cert.structure_margin <= cert.min_eigenvalue + 1e-9

    def test_multi_clique_certificate_matches_psd_optimum(self):
        """Bisection on gamma for ``z^T M z - gamma * ||z||^2``: both cones
        must locate gamma* = lambda_min(M) on a chordally-sparse M."""
        order = 5
        matrix = _tridiagonal(order, 0.45)
        lam_min = float(np.linalg.eigvalsh(matrix).min())

        def certified_bound(cone, cone_options=None):
            lo, hi = 0.0, 1.0  # p - 0*I is PSD; p - 1*I is not (lam_min < 1)
            for _ in range(10):
                gamma = 0.5 * (lo + hi)
                poly = _quadratic_form(matrix - gamma * np.eye(order))
                program = SOSProgram(name=f"bisect_{cone}_{gamma:.4f}",
                                     default_cone=cone)
                program.add_sos_constraint(poly, name="c",
                                           cone_options=cone_options)
                if program.solve(max_iterations=8000).is_success:
                    lo = gamma
                else:
                    hi = gamma
            return lo

        chordal_bound = certified_bound(
            "chordal", {"merge_size": 3, "merge_overlap": 1.0})
        psd_bound = certified_bound("psd")
        assert chordal_bound == pytest.approx(psd_bound, abs=2e-2)
        assert chordal_bound == pytest.approx(lam_min, abs=2e-2)


# ----------------------------------------------------------------------
# Cache / fingerprint hygiene
# ----------------------------------------------------------------------
class TestChordalCacheHygiene:
    def test_fingerprints_distinct_from_every_other_cone(self):
        poly = _quadratic_form(_tridiagonal(4, 0.4))
        fingerprints = {}
        layouts = {}
        for cone in ("chordal", "psd"):
            program = SOSProgram(name=f"fp_{cone}", default_cone=cone)
            program.add_sos_constraint(poly, name="c")
            problem = program.compile()[0].build()
            fingerprints[cone] = problem.fingerprint()
            layouts[cone] = problem.layout
        assert len(set(fingerprints.values())) == 2
        assert layouts["chordal"].startswith("chordal:")
        problem = SOSProgram(name="kind", default_cone="chordal")
        problem.add_sos_constraint(poly, name="c")
        assert problem.compile()[0].build().layout_kind == "chordal"

    def test_merge_knobs_change_the_fingerprint(self):
        """Different clique layouts are different problems: they must never
        share a cache entry even though the polynomial is identical."""
        poly = _quadratic_form(_tridiagonal(5, 0.4))
        fingerprints = set()
        for merge_size in (2, 3, 12):
            program = SOSProgram(name=f"mk_{merge_size}",
                                 default_cone="chordal")
            program.add_sos_constraint(
                poly, name="c",
                cone_options={"merge_size": merge_size, "merge_overlap": 1.0})
            fingerprints.add(program.compile()[0].build().fingerprint())
        assert len(fingerprints) == 3

    def test_warm_reverify_serves_from_cache_with_zero_solves(self):
        class DictCache:
            def __init__(self):
                self.store = {}

            def get(self, key):
                return self.store.get(key)

            def put(self, key, value):
                self.store[key] = value

        poly = _quadratic_form(_tridiagonal(5, 0.45))
        cache = DictCache()
        context = SolveContext(name="chordal_warm", cache=cache)

        def run(label):
            program = SOSProgram(name=label, default_cone="chordal",
                                 context=context)
            program.add_sos_constraint(poly, name="c")
            solution = program.solve(max_iterations=8000)
            assert solution.is_success
            return solution

        run("cold")
        cold = dict(context.solve_counters())
        assert cold.get("solved:chordal") == 1
        run("warm")
        warm = dict(context.solve_counters())
        assert warm.get("solved", 0) == cold.get("solved", 0)  # zero new solves
        assert warm.get("cache_hit:chordal") == 1

        # The same polynomial under the monolithic PSD cone misses the
        # chordal cache entry entirely (distinct fingerprints).
        psd_program = SOSProgram(name="psd_side", default_cone="psd",
                                 context=context)
        psd_program.add_sos_constraint(poly, name="c")
        assert psd_program.solve(max_iterations=8000).is_success
        final = dict(context.solve_counters())
        assert final.get("solved:psd") == 1
        assert final.get("cache_hit:psd", 0) == 0


# ----------------------------------------------------------------------
# Parametric families keep the clique layout across bind(theta)
# ----------------------------------------------------------------------
class TestParametricChordalFamily:
    @staticmethod
    def _family(cone_options=None):
        order = 5
        base = _tridiagonal(order, 0.3)
        bump = np.zeros((order, order))
        for i in range(order - 1):
            bump[i, i + 1] = bump[i + 1, i] = 0.1

        def build(theta):
            program = SOSProgram(name="fam", default_cone="chordal")
            program.add_sos_constraint(
                _quadratic_form(base + theta * bump), name="c",
                cone_options=cone_options)
            return program

        return ParametricSOSProgram(build, probes=(0.25, 1.0), name="fam")

    def test_layout_survives_bind(self):
        family = self._family({"merge_size": 3, "merge_overlap": 1.0}).compile()
        bound = family.bind(0.6)
        assert bound.layout.startswith("chordal:")
        assert bound.layout == family.bind(0.1).layout
        assert bound.layout_kind == "chordal"
        # bind() is exact: solving the bound problem certifies the polynomial.
        result = solve_conic_problem(bound, max_iterations=8000)
        assert result.status.is_success

    def test_bound_problem_matches_direct_compile(self):
        family = self._family().compile()
        theta = 0.625
        bound = family.bind(theta)
        problem = self._family()._build(theta).compile()[0].build()
        assert problem.layout == bound.layout
        np.testing.assert_allclose(problem.A.toarray(), bound.A.toarray(),
                                   atol=1e-12)
        np.testing.assert_allclose(problem.b, bound.b, atol=1e-12)


# ----------------------------------------------------------------------
# Sparse multiplier templates keep the inclusion stage decomposable
# ----------------------------------------------------------------------
class TestDiagonalMultiplierSupport:
    def test_diagonal_template_is_separable(self):
        variables = _variables("x", "y", "z")
        program = SOSProgram(name="tmpl")
        poly = program.new_polynomial_variable(variables, 4, name="lam",
                                               diagonal_only=True)
        monomials = sorted(m.exponents for m in poly.coefficients)
        assert (0, 0, 0) in monomials
        for exps in monomials:
            assert sum(1 for e in exps if e) <= 1
            assert sum(exps) % 2 == 0

    def test_inclusion_multiplier_support_validation(self):
        from repro.core.inclusion import build_inclusion_program

        x = Polynomial.from_variable(_variables("x")[0], _variables("x"))
        with pytest.raises(ValueError, match="multiplier_support"):
            build_inclusion_program(x * x - 1.0, x * x - 4.0,
                                    multiplier_support="sparse")

    def test_diagonal_multiplier_splits_the_inclusion_gram(self):
        """A dense multiplier fills the correlative graph (single clique);
        the diagonal template preserves the chain sparsity of the inner
        certificate, so the chordal cone genuinely decomposes the block."""
        from repro.core.inclusion import ParametricInclusionFamily

        variables = _variables("x", "y", "z")
        polys = [Polynomial.from_variable(variables[i], variables)
                 for i in range(3)]
        x, y, z = polys
        inner = (x * x + y * y + z * z
                 + (x * x * x * x + y * y * y * y + z * z * z * z) * 0.1
                 + (x * y + y * z) * 0.2)
        outer = x * x - 4.0

        def biggest_block(support):
            family = ParametricInclusionFamily(
                inner, outer, multiplier_degree=2, cone="chordal",
                multiplier_support=support).compile()
            return max(family.bind(0.5).dims.psd)

        order = biggest_block("dense")  # one clique: the full Gram basis
        assert biggest_block("diagonal") < order

    def test_diagonal_and_dense_certify_the_same_easy_inclusion(self):
        from repro.core.inclusion import check_sublevel_inclusion

        variables = _variables("x", "y")
        x = Polynomial.from_variable(variables[0], variables)
        y = Polynomial.from_variable(variables[1], variables)
        inner = x * x + y * y - 1.0
        outer = x * x + y * y - 9.0
        for support in ("dense", "diagonal"):
            certificate = check_sublevel_inclusion(
                inner, outer, multiplier_degree=2, cone="chordal",
                multiplier_support=support, max_iterations=8000)
            assert certificate.holds, f"support={support}"


# ----------------------------------------------------------------------
# Metrics plumbing (satellite: per-cone-layout solve stats)
# ----------------------------------------------------------------------
class TestChordalMetrics:
    PAYLOAD = {
        "engine": {
            "counters": {"solved": 3, "solved:chordal": 2, "solved:psd": 1,
                         "cache_hit": 1, "cache_hit:chordal": 1},
            "cache_stats": {"hits": 1, "misses": 2, "writes": 2},
            "wall_seconds": 1.5,
        },
        "scenarios": [],
    }

    def test_engine_metrics_split_by_layout(self):
        metrics = engine_metrics(self.PAYLOAD)
        assert metrics["solves"]["solved"]["by_layout"] == \
            {"chordal": 2, "psd": 1}
        assert metrics["solves"]["cache_hit"]["by_layout"] == {"chordal": 1}

    def test_prometheus_exposes_chordal_layout(self):
        text = render_prometheus(engine_metrics(self.PAYLOAD))
        assert 'repro_solves_total{layout="chordal"} 2' in text
        assert 'repro_solves_total{layout="psd"} 1' in text
        assert 'repro_cache_hits_total{layout="chordal"} 1' in text
