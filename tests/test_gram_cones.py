"""The pluggable Gram-cone layer: DD/SDD/PSD lowering, svec/smat round
trips, the batched 2x2 PSD projection hot path and the cache-key hygiene of
cone layouts.

The deterministic hierarchy tests exploit that a *quadratic form* has a
unique Gram matrix, so membership in DD/SDD/PSD is decided exactly by the
matrix, with no search over Gram representations:

* ``[[2, 1], [1, 2]]``            is diagonally dominant          (DD),
* ``[[1, 1.5], [1.5, 3]]``        is PSD but not DD; for 2x2, SDD = PSD,
* ``[[1, .8, .8], [.8, 1, .8], [.8, .8, 1]]`` is PSD but neither DD nor SDD
  (each diagonal unit must split 0.5/0.5 over its two pairs by symmetry and
  ``0.5 * 0.5 < 0.8^2``).
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
    relaxation_ladder,
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


M_DD = np.array([[2.0, 1.0], [1.0, 2.0]])
M_SDD_NOT_DD = np.array([[1.0, 1.5], [1.5, 3.0]])
M_PSD_ONLY = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.8], [0.8, 0.8, 1.0]])

#: (matrix, cones expected to certify the quadratic form)
HIERARCHY_CASES = [
    (M_DD, {"dd", "sdd", "psd"}),
    (M_SDD_NOT_DD, {"sdd", "psd"}),
    (M_PSD_ONLY, {"psd"}),
]


class TestRelaxationNames:
    def test_mapping(self):
        assert cone_for_relaxation("dsos") == "dd"
        assert cone_for_relaxation("sdsos") == "sdd"
        assert cone_for_relaxation("chordal") == "chordal"
        assert cone_for_relaxation("sos") == "psd"

    def test_ladder(self):
        assert relaxation_ladder("auto") == ("dsos", "sdsos", "chordal", "sos")
        assert relaxation_ladder("sdsos") == ("sdsos",)
        assert relaxation_ladder("chordal") == ("chordal",)

    def test_normalization_accepts_aliases(self):
        assert normalize_gram_cone("DSOS") == "dd"
        assert normalize_gram_cone("psd") == "psd"
        with pytest.raises(ValueError):
            normalize_gram_cone("soc")
        with pytest.raises(ValueError):
            cone_for_relaxation("auto")


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
    """Satellite: batched equal-size 2x2 PSD projection vs. per-block (the
    SDSOS hot path — every pair block of every SDD Gram shares order 2)."""

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

    @pytest.mark.parametrize("cone", ["psd", "sdd", "dd"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matrix_reconstruction_solves_target(self, cone, order, rng_seed=0):
        """Pin every Gram entry to a target DD matrix through equality rows
        and check the handle reconstructs exactly that matrix."""
        rng = np.random.default_rng(rng_seed + order)
        off = rng.uniform(-0.2, 0.2, size=(order, order))
        target = 0.5 * (off + off.T)
        np.fill_diagonal(target, 1.0)  # strongly DD -> representable in all cones

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

    def test_sdd_margin_lower_bounds_min_eigenvalue_under_shared_violations(self):
        """Negative pair-block eigenvalues on a shared diagonal index add up
        in the assembled Gram matrix; the margin must account for the sum,
        not just the worst single block."""
        builder = ConicProblemBuilder()
        handle = make_gram_block(builder, 3, cone="sdd", name="g")
        problem = builder.build()
        x = np.zeros(problem.dims.total)
        eps = 0.25
        violating = svec(np.array([[-eps, 0.0], [0.0, 0.0]]))
        for pair in (0, 1):  # pairs (0,1) and (0,2) both touch diagonal 0
            block = builder.blocks[handle.pair_ids[pair]]
            x[block.offset:block.offset + block.size] = violating
        gram = handle.matrix(builder, x)
        min_eig = float(np.linalg.eigvalsh(gram).min())
        assert min_eig == pytest.approx(-2 * eps)
        assert handle.structure_margin(builder, x) <= min_eig + 1e-12

    @pytest.mark.parametrize("cone", ["psd", "sdd", "dd"])
    def test_solved_certificate_reconstructs_polynomial(self, cone):
        poly = _quadratic_form(M_DD)
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
    """DD ⊂ SDD ⊂ PSD, decided exactly on quadratic forms."""

    @pytest.mark.parametrize("matrix,certifying", HIERARCHY_CASES)
    def test_memberships(self, matrix, certifying):
        poly = _quadratic_form(matrix)
        for cone in ("dd", "sdd", "psd"):
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
        poly = _quadratic_form(M_DD)
        hard = _quadratic_form(M_SDD_NOT_DD)
        program = SOSProgram(default_cone="dd")
        program.add_sos_constraint(poly, name="cheap")
        program.add_sos_constraint(hard, name="hard", cone="psd")
        solution = program.solve(max_iterations=6000)
        assert solution.is_success
        assert solution.certificates["cheap"].cone == "dd"
        assert solution.certificates["hard"].cone == "psd"
        problem = program.compile()[0].build()
        assert problem.layout.startswith("dd:")
        assert "psd:" in problem.layout
        assert problem.layout_kind == "dd+psd"


class TestConeLayoutCacheHygiene:
    """Distinct relaxations must never share cache keys or counters."""

    def test_fingerprints_distinct_across_cones(self):
        poly = _quadratic_form(M_DD)
        fingerprints = {}
        for cone in ("dd", "sdd", "psd"):
            program = SOSProgram(name=f"fp_{cone}", default_cone=cone)
            program.add_sos_constraint(poly, name="c")
            problem = program.compile()[0].build()
            fingerprints[cone] = problem.fingerprint()
            assert problem.layout == f"{cone}:{3}"
        assert len(set(fingerprints.values())) == 3

    def test_order2_sdd_and_psd_stay_distinct(self):
        """For a 1x1 *pair* structure the SDD lowering produces numerically
        identical conic data to PSD — the layout tag must still split them."""
        variables = _variables("x")
        x = Polynomial.from_variable(variables[0], variables)
        poly = x * x * 4.0 + x * 2.0 + 1.0  # Gram over [1, x]: order 2
        problems = {}
        for cone in ("sdd", "psd"):
            program = SOSProgram(name=f"o2_{cone}", default_cone=cone)
            program.add_sos_constraint(poly, name="c")
            problems[cone] = program.compile()[0].build()
        a, b = problems["sdd"], problems["psd"]
        # Identical mathematical data (SDD = PSD for 2x2 Gram matrices)...
        assert a.dims == b.dims
        np.testing.assert_allclose(a.A.toarray(), b.A.toarray())
        np.testing.assert_allclose(a.b, b.b)
        # ...but never the same cache identity.
        assert a.layout != b.layout
        assert a.fingerprint() != b.fingerprint()

    def test_solve_counters_keyed_by_layout_kind(self):
        poly = _quadratic_form(M_DD)
        context = SolveContext()
        for cone in ("dd", "sdd", "psd"):
            program = SOSProgram(name=f"k_{cone}", default_cone=cone,
                                 context=context)
            program.add_sos_constraint(poly, name="c")
            program.solve(max_iterations=4000)
        counters = context.solve_counters()
        assert counters["solved"] == 3
        assert counters["solved:dd"] == 1
        assert counters["solved:sdd"] == 1
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
