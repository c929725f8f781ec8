"""Unit tests for the conic SDP substrate (cones, builder, solvers)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sdp import (
    ADMMConicSolver,
    ADMMSettings,
    ConeDims,
    ConicProblem,
    ConicProblemBuilder,
    SolverResult,
    SolverStatus,
    column_inf_norms,
    cone_violation,
    drop_zero_rows,
    equilibrate,
    presolve,
    project_onto_cone,
    row_inf_norms,
    smat,
    solve_conic_problem,
    svec,
    svec_dim,
    unpack_warm_start,
)


class TestSvec:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        A = 0.5 * (A + A.T)
        np.testing.assert_allclose(smat(svec(A), 4), A, atol=1e-12)

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 3)); A = A + A.T
        B = rng.normal(size=(3, 3)); B = B + B.T
        assert np.dot(svec(A), svec(B)) == pytest.approx(np.trace(A @ B))

    def test_dimension(self):
        assert svec_dim(5) == 15


class TestCones:
    def test_projection_clips_nonneg(self):
        dims = ConeDims(free=1, nonneg=2, psd=())
        v = np.array([-1.0, -2.0, 3.0])
        projected = project_onto_cone(v, dims)
        np.testing.assert_allclose(projected, [-1.0, 0.0, 3.0])

    def test_projection_psd_block(self):
        dims = ConeDims(free=0, nonneg=0, psd=(2,))
        M = np.array([[1.0, 0.0], [0.0, -2.0]])
        projected = smat(project_onto_cone(svec(M), dims), 2)
        eigenvalues = np.linalg.eigvalsh(projected)
        assert eigenvalues.min() >= -1e-12

    def test_violation_zero_inside(self):
        dims = ConeDims(free=1, nonneg=1, psd=(2,))
        M = np.eye(2)
        v = np.concatenate([[5.0], [1.0], svec(M)])
        assert cone_violation(v, dims) == pytest.approx(0.0)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ConeDims(free=-1)


class TestBuilder:
    def test_block_layout_and_extraction(self):
        builder = ConicProblemBuilder()
        free_id, _ = builder.add_free_block(2, name="f")
        psd_id, _ = builder.add_psd_block(2, name="Q")
        local, coeff = builder.psd_entry_local_index(psd_id, 0, 1)
        builder.add_equality_row({(free_id, 0): 1.0, (psd_id, local): coeff}, rhs=2.0)
        problem = builder.build()
        assert problem.num_variables == 2 + svec_dim(2)
        assert problem.num_constraints == 1
        x = np.zeros(problem.num_variables)
        x[0] = 2.0
        assert problem.equality_residual(x) == pytest.approx(0.0)

    def test_psd_entry_index_formula(self):
        builder = ConicProblemBuilder()
        psd_id, _ = builder.add_psd_block(3)
        # order-3 svec layout: (0,0),(0,1),(0,2),(1,1),(1,2),(2,2)
        assert builder.psd_entry_local_index(psd_id, 0, 0)[0] == 0
        assert builder.psd_entry_local_index(psd_id, 1, 1)[0] == 3
        assert builder.psd_entry_local_index(psd_id, 2, 2)[0] == 5
        assert builder.psd_entry_local_index(psd_id, 2, 1)[0] == 4

    def test_zero_row_with_nonzero_rhs_is_infeasible(self):
        builder = ConicProblemBuilder()
        builder.add_free_block(1)
        builder.add_equality_row({}, rhs=1.0)
        problem = builder.build()
        with pytest.raises(ValueError):
            drop_zero_rows(problem)


def _simple_sdp_problem():
    """min x s.t. [[x, 1], [1, x]] >> 0  -> optimum x = 1 (via x free = psd diag)."""
    builder = ConicProblemBuilder()
    free_id, _ = builder.add_free_block(1, name="x")
    psd_id, _ = builder.add_psd_block(2, name="M")
    for i in range(2):
        local, coeff = builder.psd_entry_local_index(psd_id, i, i)
        builder.add_equality_row({(psd_id, local): coeff, (free_id, 0): -1.0}, rhs=0.0)
    local, coeff = builder.psd_entry_local_index(psd_id, 0, 1)
    builder.add_equality_row({(psd_id, local): coeff}, rhs=1.0)
    builder.add_cost(free_id, 0, 1.0)
    return builder, free_id, builder.build()


class TestSolvers:
    def test_admm_solves_simple_sdp(self):
        builder, free_id, problem = _simple_sdp_problem()
        result = ADMMConicSolver(ADMMSettings(max_iterations=8000)).solve(problem)
        assert result.status in (SolverStatus.OPTIMAL, SolverStatus.FEASIBLE)
        x_value = builder.block_value(free_id, result.x)[0]
        assert x_value == pytest.approx(1.0, abs=5e-3)

    def test_admm_feasibility_problem(self):
        builder = ConicProblemBuilder()
        psd_id, _ = builder.add_psd_block(2)
        local, coeff = builder.psd_entry_local_index(psd_id, 0, 0)
        builder.add_equality_row({(psd_id, local): coeff}, rhs=2.0)
        result = solve_conic_problem(builder.build())
        assert result.is_success
        M = builder.psd_block_matrix(psd_id, result.x)
        assert M[0, 0] == pytest.approx(2.0, abs=1e-5)
        assert np.linalg.eigvalsh(M).min() >= -1e-8

    def test_admm_detects_infeasible(self):
        builder = ConicProblemBuilder()
        nn_id, _ = builder.add_nonneg_block(1)
        builder.add_equality_row({(nn_id, 0): 1.0}, rhs=-1.0)
        result = solve_conic_problem(builder.build())
        assert not result.is_success

    def test_equilibrate_preserves_solutions(self):
        _, _, problem = _simple_sdp_problem()
        scaled, scaling = equilibrate(problem)
        assert scaled.num_constraints == problem.num_constraints
        # row scaling keeps the feasible set: a feasible x of the original
        # satisfies the scaled equalities too.
        result = solve_conic_problem(problem)
        assert scaled.equality_residual(result.x) <= 1e-4

    def test_dual_residual_reported(self):
        """The final ADMM dual residual must be a number, not a NaN placeholder."""
        _, _, problem = _simple_sdp_problem()
        result = ADMMConicSolver(ADMMSettings(max_iterations=8000)).solve(problem)
        assert np.isfinite(result.dual_residual)
        assert result.dual_residual >= 0.0


class TestPresolve:
    def test_row_inf_norms(self):
        builder = ConicProblemBuilder()
        free_id, _ = builder.add_free_block(2)
        builder.add_equality_row({(free_id, 0): -3.0, (free_id, 1): 2.0}, rhs=1.0)
        builder.add_equality_row({(free_id, 1): 0.5}, rhs=0.0)
        problem = builder.build()
        np.testing.assert_allclose(row_inf_norms(problem.A), [3.0, 0.5])

    def test_presolve_equals_drop_then_equilibrate(self):
        _, _, problem = _simple_sdp_problem()
        reference, reference_scaling = equilibrate(drop_zero_rows(problem))
        combined, combined_scaling = presolve(problem)
        np.testing.assert_allclose(reference.A.toarray(), combined.A.toarray())
        np.testing.assert_allclose(reference.b, combined.b)
        np.testing.assert_allclose(reference.c, combined.c)
        np.testing.assert_allclose(reference_scaling.row_scale,
                                   combined_scaling.row_scale)
        assert reference_scaling.cost_scale == combined_scaling.cost_scale

    def test_presolve_unscaled(self):
        _, _, problem = _simple_sdp_problem()
        unscaled, scaling = presolve(problem, scale=False)
        assert scaling is None
        np.testing.assert_allclose(unscaled.A.toarray(), problem.A.toarray())

    def test_presolve_rejects_trivially_infeasible(self):
        builder = ConicProblemBuilder()
        builder.add_free_block(1)
        builder.add_equality_row({}, rhs=1.0)
        with pytest.raises(ValueError):
            presolve(builder.build())

    def test_column_inf_norms_matches_dense_reference(self):
        rng = np.random.default_rng(7)
        A = sp.random(40, 25, density=0.15, random_state=rng, format="csr")
        A.data -= 0.5  # exercise the abs()
        dense = np.abs(A.toarray()).max(axis=0)
        np.testing.assert_allclose(column_inf_norms(A), dense)
        # all-zero columns (and an empty matrix) report zero, not garbage
        empty = sp.csr_matrix((4, 3))
        np.testing.assert_allclose(column_inf_norms(empty), np.zeros(3))

    def test_presolve_never_densifies_sparse_blocks(self):
        """Presolve of a 2000-row problem must not allocate a dense (m, n) array.

        Row/column norms are computed straight off the CSR data array;
        a regression to ``abs(A).max(axis=...)``-style dense detours (or any
        ``toarray``/``todense`` round-trip) would allocate m*n doubles.  We
        forbid the round-trip outright and cap the peak allocation far below
        the dense footprint.
        """
        import tracemalloc

        m, n = 2000, 600
        rng = np.random.default_rng(3)
        extra = sp.random(m, n, density=0.005, random_state=rng, format="coo")
        # one guaranteed entry per row, then blank a few rows so the
        # drop-zero-rows path runs too
        rows = np.concatenate([np.arange(m), extra.row])
        cols = np.concatenate([np.arange(m) % n, extra.col])
        data = np.concatenate([1.0 + rng.random(m), extra.data])
        zero = np.isin(np.arange(m), [17, 401, 1999])
        live = ~zero[rows]
        A = sp.csr_matrix((data[live], (rows[live], cols[live])), shape=(m, n))
        b = rng.standard_normal(m)
        b[zero] = 0.0
        problem = ConicProblem(c=rng.standard_normal(n), A=A, b=b,
                               dims=ConeDims(free=n))

        def _forbidden(self, *args, **kwargs):  # pragma: no cover - trap
            raise AssertionError("presolve densified a sparse block")

        dense_bytes = m * n * 8
        matrix_cls = type(A)
        originals = {name: getattr(matrix_cls, name)
                     for name in ("toarray", "todense")}
        try:
            for name in originals:
                setattr(matrix_cls, name, _forbidden)
            tracemalloc.start()
            presolved, scaling = presolve(problem)
            norms = column_inf_norms(presolved.A)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        finally:
            for name, func in originals.items():
                setattr(matrix_cls, name, func)
        assert presolved.num_constraints == m - 3
        assert scaling is not None
        assert norms.shape == (n,)
        assert peak < dense_bytes / 4


class TestUnpackWarmStart:
    def test_dict_form(self):
        parts = {"x": np.ones(3), "z": np.zeros(3), "u": np.full(3, 2.0)}
        x, z, u = unpack_warm_start(parts, 3)
        np.testing.assert_allclose(x, 1.0)
        np.testing.assert_allclose(z, 0.0)
        np.testing.assert_allclose(u, 2.0)
        # The returned arrays are copies: mutating them must not leak back.
        x[0] = 99.0
        assert parts["x"][0] == 1.0

    def test_tuple_form(self):
        x, z, u = unpack_warm_start((np.ones(2), np.zeros(2), np.ones(2)), 2)
        np.testing.assert_allclose(x, [1.0, 1.0])
        np.testing.assert_allclose(u, [1.0, 1.0])

    def test_solver_result_form(self):
        data = {"x": np.ones(2), "z": np.ones(2), "u": np.zeros(2)}
        result = SolverResult(status=SolverStatus.FEASIBLE,
                              info={"warm_start_data": data})
        unpacked = unpack_warm_start(result, 2)
        assert unpacked is not None
        np.testing.assert_allclose(unpacked[0], [1.0, 1.0])

    def test_solver_result_without_data(self):
        result = SolverResult(status=SolverStatus.FEASIBLE)
        assert unpack_warm_start(result, 2) is None

    def test_none_passthrough(self):
        assert unpack_warm_start(None, 5) is None

    def test_dimension_mismatch_rejected(self):
        parts = {"x": np.ones(3), "z": np.zeros(3), "u": np.zeros(3)}
        assert unpack_warm_start(parts, 4) is None

    def test_missing_component_rejected(self):
        assert unpack_warm_start({"x": np.ones(2), "z": np.ones(2)}, 2) is None

    def test_wrong_tuple_length_rejected(self):
        assert unpack_warm_start((np.ones(2), np.ones(2)), 2) is None


class TestInfeasibilityDetection:
    def _infeasible_problem(self):
        builder = ConicProblemBuilder()
        nn_id, _ = builder.add_nonneg_block(1)
        psd_id, _ = builder.add_psd_block(2)
        local, coeff = builder.psd_entry_local_index(psd_id, 0, 0)
        builder.add_equality_row({(psd_id, local): coeff}, rhs=1.0)
        builder.add_equality_row({(nn_id, 0): 1.0}, rhs=-1.0)
        return builder.build()

    def test_stall_detection_flags_infeasible(self):
        """With the plateau detector off, the stall window must still fire."""
        settings = ADMMSettings(max_iterations=8000, stall_window=500,
                                infeasibility_detection=False)
        result = ADMMConicSolver(settings).solve(self._infeasible_problem())
        assert result.status == SolverStatus.INFEASIBLE_SUSPECTED
        assert result.iterations < 8000

    def test_plateau_detector_fires_before_stall_window(self):
        settings = ADMMSettings(max_iterations=20000)
        result = ADMMConicSolver(settings).solve(self._infeasible_problem())
        assert result.status == SolverStatus.INFEASIBLE_SUSPECTED
        assert result.iterations < settings.stall_window

    def test_detector_does_not_reject_feasible(self):
        _, _, problem = _simple_sdp_problem()
        result = ADMMConicSolver(ADMMSettings(max_iterations=8000)).solve(problem)
        assert result.status.is_success
