"""The Gram-cone layer: PSD/chordal lowering, svec/smat round trips, the
batched PSD projection and the cache-key hygiene of cone layouts.

The membership tests exploit that a *quadratic form* has a unique Gram
matrix, so membership is decided exactly by the matrix, with no search over
Gram representations.  The chordal cone is exact on the patterned slice of
the PSD cone (the pattern comes from the form's support), so both cones
certify every PSD matrix and neither certifies an indefinite one:

* ``[[2, 1], [1, 2]]``                   is PSD (dense pattern),
* ``[[1, .6, 0], [.6, 1, .6], [0, .6, 1]]`` is PSD with a path pattern,
* ``[[1, 1.5], [1.5, 1]]``               is indefinite.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.sdp import (
    ConicProblemBuilder,
    SolveContext,
    cone_for_relaxation,
    make_gram_block,
    normalize_gram_cone,
    project_psd_svec,
    smat,
    svec,
    svec_dim,
)
from repro.sdp.cones import _project_psd_batch, smat_many, svec_many
from repro.sos import SOSProgram

small_entries = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                          allow_infinity=False)


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


M_DENSE = np.array([[2.0, 1.0], [1.0, 2.0]])
M_PATH = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]])
M_INDEFINITE = np.array([[1.0, 1.5], [1.5, 1.0]])

#: (matrix, cones expected to certify the quadratic form)
HIERARCHY_CASES = [
    (M_DENSE, {"chordal", "psd"}),
    (M_PATH, {"chordal", "psd"}),
    (M_INDEFINITE, set()),
]


class TestRelaxationNames:
    def test_mapping(self):
        assert cone_for_relaxation("chordal") == "chordal"
        assert cone_for_relaxation("sos") == "psd"
        assert cone_for_relaxation("psd") == "psd"

    def test_normalization_accepts_aliases(self):
        assert normalize_gram_cone("SOS") == "psd"
        assert normalize_gram_cone("psd") == "psd"
        assert normalize_gram_cone("Chordal") == "chordal"
        for name in ("soc", "dsos", "sdsos", "auto", "dd", "sdd"):
            with pytest.raises(ValueError, match=r"\('sos', 'chordal'\)"):
                normalize_gram_cone(name)


class TestSvecRoundTripProperties:
    """Satellite: property tests for the svec/smat bijection (single and batched)."""

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_matrix_to_svec(self, order, data):
        entries = data.draw(st.lists(small_entries, min_size=order * order,
                                     max_size=order * order))
        M = np.array(entries).reshape(order, order)
        M = 0.5 * (M + M.T)
        np.testing.assert_allclose(smat(svec(M), order), M, atol=1e-12)

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_svec_to_matrix(self, order, data):
        dim = svec_dim(order)
        entries = data.draw(st.lists(small_entries, min_size=dim, max_size=dim))
        v = np.array(entries)
        np.testing.assert_allclose(svec(smat(v, order)), v, atol=1e-12)

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_per_block(self, order, count, data):
        dim = svec_dim(order)
        entries = data.draw(st.lists(small_entries, min_size=count * dim,
                                     max_size=count * dim))
        vectors = np.array(entries).reshape(count, dim)
        matrices = smat_many(vectors, order)
        for k in range(count):
            np.testing.assert_allclose(matrices[k], smat(vectors[k], order),
                                       atol=1e-12)
        np.testing.assert_allclose(svec_many(matrices, order), vectors,
                                   atol=1e-12)

    def test_norm_preservation(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5))
        M = 0.5 * (M + M.T)
        assert np.linalg.norm(svec(M)) == pytest.approx(
            np.linalg.norm(M, "fro"), rel=1e-12)


class TestBatchedPairProjection:
    """Batched equal-size 2x2 PSD projection vs. per-block (the closed form
    that projects order-2 blocks: small multipliers and two-vertex chordal
    cliques)."""

    @given(st.integers(min_value=1, max_value=24), st.data())
    @settings(max_examples=40, deadline=None)
    def test_batched_2x2_projection_matches_per_block(self, count, data):
        dim = svec_dim(2)
        entries = data.draw(st.lists(small_entries, min_size=count * dim,
                                     max_size=count * dim))
        vectors = np.array(entries).reshape(count, dim)
        projected, min_eigs = _project_psd_batch(vectors, 2)
        for k in range(count):
            single, min_eig = project_psd_svec(vectors[k], 2)
            np.testing.assert_allclose(projected[k], single, atol=1e-9)
            assert min_eigs[k] == pytest.approx(min_eig, abs=1e-9)

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=2, max_value=8), st.data())
    @settings(max_examples=25, deadline=None)
    def test_batched_projection_matches_per_block_any_order(self, order, count,
                                                            data):
        dim = svec_dim(order)
        entries = data.draw(st.lists(small_entries, min_size=count * dim,
                                     max_size=count * dim))
        vectors = np.array(entries).reshape(count, dim)
        projected, _ = _project_psd_batch(vectors, order)
        for k in range(count):
            single, _ = project_psd_svec(vectors[k], order)
            np.testing.assert_allclose(projected[k], single, atol=1e-9)


class TestGramBlockLowering:
    """The entry functionals of each cone reconstruct the intended matrix."""

    @pytest.mark.parametrize("cone", ["psd", "chordal"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matrix_reconstruction_solves_target(self, cone, order, rng_seed=0):
        """Pin every Gram entry to a target PSD matrix through equality rows
        and check the handle reconstructs exactly that matrix."""
        rng = np.random.default_rng(rng_seed + order)
        off = rng.uniform(-0.2, 0.2, size=(order, order))
        target = 0.5 * (off + off.T)
        np.fill_diagonal(target, 1.0)  # diagonally dominant -> safely PSD

        builder = ConicProblemBuilder()
        handle = make_gram_block(builder, order, cone=cone, name="g")
        rows, i_idx, j_idx, rhs = [], [], [], []
        r = 0
        for i in range(order):
            for j in range(i, order):
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

        from repro.sdp import solve_conic_problem
        result = solve_conic_problem(problem, max_iterations=6000,
                                     eps_abs=1e-8, eps_rel=1e-8)
        assert result.status.is_success
        gram = handle.matrix(builder, result.x)
        np.testing.assert_allclose(gram, target, atol=5e-4)
        assert handle.structure_margin(builder, result.x) >= -1e-6

    def test_chordal_margin_lower_bounds_min_eigenvalue_under_shared_violations(self):
        """Negative clique-block eigenvalues on a shared vertex add up in the
        assembled Gram matrix; the margin must account for the sum, not
        just the worst single block."""
        builder = ConicProblemBuilder()
        # A star on vertex 0: cliques {0, 1} and {0, 2}, kept apart.
        handle = make_gram_block(builder, 3, cone="chordal", name="g",
                                 sparsity=[(0, 1), (0, 2)], merge_size=2,
                                 merge_overlap=1.0)
        assert sorted(handle.cliques) == [(0, 1), (0, 2)]
        problem = builder.build()
        x = np.zeros(problem.dims.total)
        eps = 0.25
        for clique, block_id in zip(handle.cliques, handle.block_ids):
            violating = np.zeros((2, 2))
            shared = clique.index(0)
            violating[shared, shared] = -eps
            block = builder.blocks[block_id]
            x[block.offset:block.offset + block.size] = svec(violating)
        gram = handle.matrix(builder, x)
        min_eig = float(np.linalg.eigvalsh(gram).min())
        assert min_eig == pytest.approx(-2 * eps)
        assert handle.structure_margin(builder, x) <= min_eig + 1e-12

    @pytest.mark.parametrize("cone", ["psd", "chordal"])
    def test_solved_certificate_reconstructs_polynomial(self, cone):
        poly = _quadratic_form(M_DENSE)
        program = SOSProgram(default_cone=cone)
        program.add_sos_constraint(poly, name="c")
        solution = program.solve(max_iterations=4000)
        assert solution.is_success
        cert = solution.certificates["c"]
        assert cert.cone == cone
        assert cert.is_numerically_sos(eig_tol=-1e-6, res_tol=1e-4)
        assert cert.structure_margin is not None
        assert cert.structure_margin >= -1e-6
        # The structure margin always lower-bounds the true minimum eigenvalue.
        assert cert.structure_margin <= cert.min_eigenvalue + 1e-9


class TestHierarchy:
    """chordal(n; G) ⊆ PSD(n), exact on the pattern: decided on quadratic forms."""

    @pytest.mark.parametrize("matrix,certifying", HIERARCHY_CASES)
    def test_memberships(self, matrix, certifying):
        poly = _quadratic_form(matrix)
        for cone in ("chordal", "psd"):
            program = SOSProgram(name=f"h_{cone}", default_cone=cone)
            program.add_sos_constraint(poly, name="c")
            solution = program.solve(max_iterations=6000)
            if cone in certifying:
                assert solution.is_success, \
                    f"{cone} should certify Gram {matrix.tolist()}"
                cert = solution.certificates["c"]
                assert cert.is_numerically_sos(eig_tol=-1e-5, res_tol=1e-4)
            else:
                assert not solution.is_success, \
                    f"{cone} must not certify Gram {matrix.tolist()}"

    def test_per_constraint_cone_override(self):
        poly = _quadratic_form(M_DENSE)
        other = _quadratic_form(M_PATH)
        program = SOSProgram(default_cone="chordal")
        program.add_sos_constraint(poly, name="clique")
        program.add_sos_constraint(other, name="full", cone="psd")
        solution = program.solve(max_iterations=6000)
        assert solution.is_success
        assert solution.certificates["clique"].cone == "chordal"
        assert solution.certificates["full"].cone == "psd"
        problem = program.compile()[0].build()
        assert problem.layout.startswith("chordal:")
        assert "psd:" in problem.layout
        assert problem.layout_kind == "chordal+psd"


class TestConeLayoutCacheHygiene:
    """Distinct cones must never share cache keys or counters."""

    def test_fingerprints_distinct_across_cones(self):
        poly = _quadratic_form(M_DENSE)
        fingerprints = {}
        for cone in ("chordal", "psd"):
            program = SOSProgram(name=f"fp_{cone}", default_cone=cone)
            program.add_sos_constraint(poly, name="c")
            problem = program.compile()[0].build()
            fingerprints[cone] = problem.fingerprint()
            assert problem.layout.startswith(f"{cone}:{3}")
        assert len(set(fingerprints.values())) == 2

    def test_dense_chordal_and_psd_stay_distinct(self):
        """On a dense pattern the chordal lowering is one clique holding the
        whole basis — numerically the PSD block — yet the layout tag must
        still split them."""
        variables = _variables("x")
        x = Polynomial.from_variable(variables[0], variables)
        poly = x * x * 4.0 + x * 2.0 + 1.0  # Gram over [1, x]: order 2, dense
        problems = {}
        for cone in ("chordal", "psd"):
            program = SOSProgram(name=f"o2_{cone}", default_cone=cone)
            program.add_sos_constraint(poly, name="c")
            problems[cone] = program.compile()[0].build()
        a, b = problems["chordal"], problems["psd"]
        # Identical mathematical data...
        assert a.dims == b.dims
        np.testing.assert_allclose(a.A.toarray(), b.A.toarray())
        np.testing.assert_allclose(a.b, b.b)
        # ...but never the same cache identity.
        assert a.layout != b.layout
        assert a.fingerprint() != b.fingerprint()

    def test_solve_counters_keyed_by_layout_kind(self):
        poly = _quadratic_form(M_DENSE)
        context = SolveContext()
        for cone in ("chordal", "psd"):
            program = SOSProgram(name=f"k_{cone}", default_cone=cone,
                                 context=context)
            program.add_sos_constraint(poly, name="c")
            program.solve(max_iterations=4000)
        counters = context.solve_counters()
        assert counters["solved"] == 2
        assert counters["solved:chordal"] == 1
        assert counters["solved:psd"] == 1

    def test_raw_problem_layout_kind_defaults(self):
        builder = ConicProblemBuilder()
        builder.add_nonneg_block(2, name="n")
        builder.add_equality_row({(0, 0): 1.0, (0, 1): 1.0}, 1.0)
        assert builder.build().layout_kind == "lp"
        builder2 = ConicProblemBuilder()
        builder2.add_psd_block(2, name="p")
        builder2.add_equality_row({(0, 0): 1.0}, 1.0)
        assert builder2.build().layout_kind == "psd"
