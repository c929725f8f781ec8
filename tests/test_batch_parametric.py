"""Tests for the parametric-solve subsystem: ``ParametricSOSProgram``,
``ParametricInclusionFamily``, ``BatchADMMSolver`` and the batched K-section
level-set maximiser."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core import LevelSetMaximizer, LevelSetOptions
from repro.core.inclusion import (
    ParametricInclusionFamily,
    build_inclusion_program,
    check_sublevel_inclusion,
)
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.sdp import (
    ADMMConicSolver,
    ADMMSettings,
    BatchADMMSolver,
    ConeDims,
    ConicProblemBuilder,
    SolveContext,
    SolverStatus,
    project_onto_cone,
    project_onto_cone_many,
    solve_conic_problems,
)
from repro.sdp.admm import KKT_REGULARIZATION, project_affine, schur_matrix
from repro.sdp.backend import NUMPY_BACKEND
from repro.sdp.scaling import presolve
from repro.sos import (
    ParametricProgramError,
    ParametricSOSProgram,
    SemialgebraicSet,
    SOSProgram,
    compile_counters,
)


@pytest.fixture
def ball_inclusion():
    """V = x^2 + y^2; {V <= theta} subset of {V <= 4} iff theta <= 4."""
    x, y = make_variables("x", "y")
    xv = VariableVector([x, y])
    px = Polynomial.from_variable(x, xv)
    py = Polynomial.from_variable(y, xv)
    V = px * px + py * py
    return xv, V, V - 4.0


def _feasibility_problem(rhs_nonneg, rhs_psd=2.0):
    builder = ConicProblemBuilder()
    psd_id, _ = builder.add_psd_block(3)
    nn_id, _ = builder.add_nonneg_block(1)
    local, coeff = builder.psd_entry_local_index(psd_id, 0, 0)
    builder.add_equality_row({(psd_id, local): coeff}, rhs=rhs_psd)
    local, coeff = builder.psd_entry_local_index(psd_id, 0, 1)
    builder.add_equality_row({(psd_id, local): coeff}, rhs=0.5)
    builder.add_equality_row({(nn_id, 0): 1.0}, rhs=rhs_nonneg)
    return builder.build()


class TestProjectOntoConeMany:
    def test_matches_single_projection(self):
        dims = ConeDims(free=2, nonneg=3, psd=(3, 3, 2))
        rng = np.random.default_rng(0)
        points = rng.normal(size=(7, dims.total))
        batched = project_onto_cone_many(points, dims)
        for i in range(points.shape[0]):
            np.testing.assert_allclose(
                batched[i], project_onto_cone(points[i], dims), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_onto_cone_many(np.zeros((2, 5)), ConeDims(free=1))


class TestBatchADMMSolver:
    def test_statuses_and_solutions_match_serial(self):
        problems = [_feasibility_problem(t) for t in (1.0, 2.0, -1.0, 0.3, -0.7)]
        settings = ADMMSettings(max_iterations=6000)
        serial = [ADMMConicSolver(settings).solve(p) for p in problems]
        batch = BatchADMMSolver(settings).solve_batch(problems)
        for expected, got in zip(serial, batch):
            assert got.status == expected.status
            assert got.iterations == expected.iterations
            if expected.status.is_success:
                np.testing.assert_allclose(got.x, expected.x, atol=1e-7)
        assert batch[0].info["batch_size"] == len(problems)

    def test_one_problem_batch_runs_the_single_loop(self):
        for rhs in (1.0, -1.0):
            problem = _feasibility_problem(rhs)
            expected = ADMMConicSolver().solve(problem)
            [got] = solve_conic_problems([problem],
                                         context=SolveContext(name="one"))
            assert got.status == expected.status
            assert got.iterations == expected.iterations
            np.testing.assert_array_equal(got.x, expected.x)

    def test_mixed_structure_falls_back_to_serial(self):
        builder = ConicProblemBuilder()
        psd_id, _ = builder.add_psd_block(2)
        local, coeff = builder.psd_entry_local_index(psd_id, 0, 0)
        builder.add_equality_row({(psd_id, local): coeff}, rhs=1.0)
        other = builder.build()
        problems = [_feasibility_problem(1.0), other]
        results = BatchADMMSolver().solve_batch(problems)
        assert all(r.status.is_success for r in results)

    def test_warm_start_reduces_iterations(self):
        problems = [_feasibility_problem(t) for t in (1.0, 2.0)]
        solver = BatchADMMSolver(ADMMSettings(max_iterations=6000))
        cold = solver.solve_batch(problems)
        warm = solver.solve_batch(
            problems, [r.info["warm_start_data"] for r in cold])
        for before, after in zip(cold, warm):
            assert after.info["warm_started"]
            assert after.iterations <= before.iterations
        assert all(r.status.is_success for r in warm)

    def test_empty_batch(self):
        assert BatchADMMSolver().solve_batch([]) == []

    def test_trivially_infeasible_member(self):
        builder = ConicProblemBuilder()
        builder.add_free_block(1)
        builder.add_equality_row({}, rhs=1.0)  # zero row, nonzero rhs
        bad = builder.build()
        results = BatchADMMSolver().solve_batch([_feasibility_problem(1.0), bad])
        assert results[0].status.is_success
        assert results[1].status == SolverStatus.INFEASIBLE_SUSPECTED

    def test_solve_conic_problems_dispatch(self):
        problems = [_feasibility_problem(t) for t in (1.0, 2.0)]
        results = solve_conic_problems(problems)
        assert all(r.status.is_success for r in results)


#: Started at rho=100 with tolerances no member meets early, these members
#: drive their adaptive rho apart (down to 3.125, up to 800) across three
#: distinct presolved ``A`` matrices.
DIVERGING_SETTINGS = ADMMSettings(max_iterations=1500, rho=100.0,
                                  eps_abs=1e-12, eps_rel=1e-12)
DIVERGING_CASES = [(1.0, 0.5, 0.0), (1.0, 0.5, 1.0), (1.0, 2.0, 1.0),
                   (-1.0, 0.5, 0.0), (-1.0, 2.0, 1.0), (30.0, 2.0, 1.0),
                   (30.0, 0.5, 0.0)]


def _coupled_problem(rhs_nonneg, coupling, cost):
    """Two PSD blocks and a nonneg pair coupled by ``coupling``; ``cost``
    weights the trace of the 4x4 block."""
    builder = ConicProblemBuilder()
    small, _ = builder.add_psd_block(3)
    large, _ = builder.add_psd_block(4)
    nonneg, _ = builder.add_nonneg_block(2)
    local, coeff = builder.psd_entry_local_index(small, 0, 0)
    builder.add_equality_row({(small, local): coeff}, rhs=2.0)
    local, coeff = builder.psd_entry_local_index(small, 0, 1)
    other, other_coeff = builder.psd_entry_local_index(large, 1, 2)
    builder.add_equality_row({(small, local): coeff,
                              (large, other): coupling * other_coeff}, rhs=0.5)
    local, coeff = builder.psd_entry_local_index(large, 0, 0)
    builder.add_equality_row({(nonneg, 0): 1.0, (large, local): coeff},
                             rhs=rhs_nonneg)
    if cost:
        for i in range(4):
            local, _ = builder.psd_entry_local_index(large, i, i)
            builder.add_cost(large, local, cost)
        builder.add_cost(nonneg, 1, -cost)
        local, coeff = builder.psd_entry_local_index(large, 3, 3)
        builder.add_equality_row({(nonneg, 1): 1.0, (large, local): -coeff},
                                 rhs=0.0)
    return builder.build()


def _csc_bytes(matrix):
    matrix = matrix.tocsc()
    return (matrix.shape, matrix.indptr.tobytes(), matrix.indices.tobytes(),
            matrix.data.tobytes())


def _presolved_A(problem):
    return presolve(problem)[0].A.tocsc()


class TestBatchPerPairFactors:
    """The batch loop runs each member's own serial iteration exactly."""

    def _problems(self):
        return [_coupled_problem(*case) for case in DIVERGING_CASES]

    def _spy_factor(self, monkeypatch, fail_problem=None, fail_call=None):
        """Record the bytes of every factored matrix.  Raise for
        ``fail_problem``'s first Schur matrix (at the initial rho) or on the
        ``fail_call``-th factorisation (1-based)."""
        original = NUMPY_BACKEND.kkt_factor
        fail_key = None
        if fail_problem is not None:
            A = _presolved_A(fail_problem)
            fail_key = _csc_bytes(schur_matrix((A @ A.T).tocsc(), DIVERGING_SETTINGS.rho))
        keys = []

        def kkt_factor(matrix):
            keys.append(_csc_bytes(matrix))
            if keys[-1] == fail_key or len(keys) == fail_call:
                raise RuntimeError("injected singular KKT")
            return original(matrix)

        monkeypatch.setattr(NUMPY_BACKEND, "kkt_factor", kkt_factor)
        return keys

    def test_members_bit_identical_to_serial(self):
        problems = self._problems()
        serial = [ADMMConicSolver(DIVERGING_SETTINGS).solve(p) for p in problems]
        batch = BatchADMMSolver(DIVERGING_SETTINGS).solve_batch(problems)
        rhos = {r.info["rho_final"] for r in serial}
        assert min(rhos) < DIVERGING_SETTINGS.rho < max(rhos)
        for expected, got in zip(serial, batch):
            assert got.status == expected.status
            assert got.iterations == expected.iterations
            assert got.info["rho_final"] == expected.info["rho_final"]
            np.testing.assert_array_equal(got.x, expected.x)

    def test_one_factor_per_distinct_pair(self, monkeypatch):
        problems = self._problems()
        keys = self._spy_factor(monkeypatch)
        # (A group, factored matrix) of every serial factorisation; the
        # matrix bytes identify rho within a group.
        groups = {}
        serial_pairs = set()
        for problem in problems:
            group = groups.setdefault(_csc_bytes(_presolved_A(problem)), len(groups))
            keys.clear()
            ADMMConicSolver(DIVERGING_SETTINGS).solve(problem)
            serial_pairs.update((group, key) for key in keys)
        assert len(groups) >= 2
        keys.clear()
        BatchADMMSolver(DIVERGING_SETTINGS).solve_batch(problems)
        assert len(keys) == len(serial_pairs)
        assert sorted(keys) == sorted(key for _, key in serial_pairs)

    def test_factor_failure_ends_only_its_member(self, monkeypatch):
        problems = self._problems()
        faulty = _coupled_problem(1.0, 3.0, 1.0)  # its own A and A A^T
        members = problems[:2] + [faulty] + problems[2:]
        serial = [ADMMConicSolver(DIVERGING_SETTINGS).solve(p) for p in problems]
        self._spy_factor(monkeypatch, fail_problem=faulty)
        batch = BatchADMMSolver(DIVERGING_SETTINGS).solve_batch(members)
        failed = batch.pop(2)
        assert failed.status == SolverStatus.NUMERICAL_ERROR
        assert failed.x is None
        assert "injected singular KKT" in failed.info["reason"]
        for expected, got in zip(serial, batch):
            assert got.status == expected.status
            assert got.iterations == expected.iterations
            np.testing.assert_array_equal(got.x, expected.x)

    def test_serial_refactorization_failure_matches_batch(self, monkeypatch):
        # This problem raises rho, so its second factorisation is a
        # refactorisation inside the loop.
        problem = self._problems()[3]
        keys = self._spy_factor(monkeypatch, fail_call=2)
        serial = ADMMConicSolver(DIVERGING_SETTINGS).solve(problem)
        assert len(keys) == 2
        keys.clear()
        batch, = BatchADMMSolver(DIVERGING_SETTINGS).solve_batch([problem])
        assert len(keys) == 2
        for result in (serial, batch):
            assert result.status == SolverStatus.NUMERICAL_ERROR
            assert result.x is None
            assert "injected singular KKT" in result.info["reason"]

    def test_non_finite_member_fails_alone(self):
        problems = self._problems()[:3]
        poisoned = _coupled_problem(1.0, 0.5, 0.0)
        poisoned.b[0] = np.nan
        members = problems[:1] + [poisoned] + problems[1:]
        serial = [ADMMConicSolver(DIVERGING_SETTINGS).solve(p) for p in members]
        batch = BatchADMMSolver(DIVERGING_SETTINGS).solve_batch(members)
        for results in (serial, batch):
            failed = results.pop(1)
            assert failed.status == SolverStatus.NUMERICAL_ERROR
            assert failed.x is None
        for expected, got in zip(serial, batch):
            assert got.status == expected.status
            assert got.iterations == expected.iterations
            np.testing.assert_array_equal(got.x, expected.x)


class TestSchurXUpdate:
    """The m x m x-update equals the (n + m) KKT solve it replaces."""

    @pytest.mark.parametrize("rho", [1e-6, 1.0, 1e6])
    def test_matches_kkt_solve_with_redundant_row(self, rho):
        rng = np.random.default_rng(7)
        n = 12
        rows = rng.standard_normal((3, n))
        rows[rows < -0.8] = 0.0
        # The third row is the sum of the first two, with a consistent b.
        A = sp.csc_matrix(np.vstack([rows[:2], rows[0] + rows[1], rows[2]]))
        b = np.array([0.3, -1.2, 0.3 - 1.2, 0.7])
        w = rng.standard_normal(n)
        factor = NUMPY_BACKEND.kkt_factor(schur_matrix((A @ A.T).tocsc(), rho))
        x = project_affine(factor, A, A.T, w, b)

        m = A.shape[0]
        kkt = sp.bmat([[rho * sp.identity(n), A.T],
                       [A, -KKT_REGULARIZATION * sp.identity(m)]], format="csc")
        reference = spla.spsolve(kkt, np.concatenate([rho * w, b]))[:n]
        assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)


class TestParametricSOSProgram:
    def test_bind_matches_fresh_compile(self, ball_inclusion):
        _, V, outer = ball_inclusion
        family = ParametricInclusionFamily(V, outer, multiplier_degree=2)
        family.compile()
        for theta in (0.0, 0.7, 2.5, 6.0):
            program, _, _, _ = build_inclusion_program(V - theta, outer, 2)
            direct = program.compile()[0].build()
            bound = family.bind(theta)
            assert direct.dims == bound.dims
            np.testing.assert_allclose(direct.A.toarray(), bound.A.toarray(),
                                       atol=1e-12)
            np.testing.assert_allclose(direct.b, bound.b, atol=1e-12)
            np.testing.assert_allclose(direct.c, bound.c, atol=1e-12)

    def test_bind_performs_no_recompilation(self, ball_inclusion):
        _, V, outer = ball_inclusion
        context = SolveContext()
        family = ParametricInclusionFamily(V, outer, multiplier_degree=2,
                                           context=context)
        family.compile()
        assert family.family.num_structure_compiles == 3  # 2 probes + affinity
        context.reset_compile_counters()
        certificates = family.check_levels([1.0, 2.0, 3.0, 4.5],
                                           max_iterations=6000)
        assert compile_counters(context)["full"] == 0
        assert family.family.num_binds == 4
        assert [c.holds for c in certificates] == [True, True, True, False]

    def test_matches_serial_inclusion_check(self, ball_inclusion):
        _, V, outer = ball_inclusion
        family = ParametricInclusionFamily(V, outer, multiplier_degree=2)
        for theta in (1.0, 3.9, 4.5):
            batched, = family.check_levels([theta], max_iterations=6000)
            serial = check_sublevel_inclusion(V - theta, outer, 2,
                                              max_iterations=6000)
            assert batched.holds == serial.holds

    def test_multiplier_extraction(self, ball_inclusion):
        _, V, outer = ball_inclusion
        family = ParametricInclusionFamily(V, outer, multiplier_degree=2)
        problem = family.bind(1.0)
        result = solve_conic_problems([problem], max_iterations=6000)[0]
        certificate = family.interpret(1.0, result, extract_multiplier=True)
        assert certificate.holds
        assert certificate.multiplier is not None
        # Lemma 1: lambda * (V - 1) - (V - 4) must be SOS, so in particular
        # nonnegative at the origin: lambda(0) * (-1) + 4 >= 0.
        assert certificate.multiplier.evaluate([0.0, 0.0]) <= 4.0 + 1e-6

    def test_non_affine_family_rejected(self, ball_inclusion):
        _, V, outer = ball_inclusion

        def build(theta):
            program, lam, _, _ = build_inclusion_program(V - theta * theta,
                                                         outer, 2)
            return program, lam

        family = ParametricSOSProgram(build, probes=(0.0, 1.0))
        with pytest.raises(ParametricProgramError):
            family.compile()

    def test_structurally_unstable_family_rejected(self):
        x, = make_variables("x")
        xv = VariableVector([x])
        px = Polynomial.from_variable(x, xv)

        def build(theta):
            program = SOSProgram()
            degree = 2 if theta == 0.0 else 4
            sigma = program.new_sos_polynomial(xv, degree, name="s")
            program.add_sos_constraint(sigma * (px * px) + theta + 1.0,
                                       name="main")
            return program

        family = ParametricSOSProgram(build, probes=(0.0, 1.0))
        with pytest.raises(ParametricProgramError):
            family.compile()

    def test_identical_probes_rejected(self, ball_inclusion):
        _, V, outer = ball_inclusion
        with pytest.raises(ValueError):
            ParametricInclusionFamily(V, outer, probes=(1.0, 1.0))


class TestBatchedLevelSetMaximizer:
    def _setup(self):
        x, y = make_variables("x", "y")
        xv = VariableVector([x, y])
        px = Polynomial.from_variable(x, xv)
        py = Polynomial.from_variable(y, xv)
        V = px * px + 2 * py * py
        domain = SemialgebraicSet(
            variables=xv,
            inequalities=(4.0 - px * px - py * py, 3.0 - px * px),
        )
        return V, domain

    def test_matches_serial_bisection(self):
        V, domain = self._setup()
        common = dict(bisection_tolerance=0.05, initial_upper_bound=5.0,
                      solver_settings=dict(max_iterations=4000))
        serial = LevelSetMaximizer(LevelSetOptions(
            strategy="serial", **common)).maximize("m", V, domain)
        batched = LevelSetMaximizer(LevelSetOptions(
            strategy="batched", **common)).maximize("m", V, domain)
        # Both strategies terminate with a certified bracket of width <= tol
        # around the same optimum, so the levels agree within the tolerance.
        assert abs(serial.level - batched.level) <= 0.05 + 1e-9
        assert batched.level > 0
        assert batched.certified_levels
        assert batched.rejected_levels
        # K-section needs strictly fewer rounds than bisection.
        assert batched.iterations <= serial.iterations

    def test_expansion_when_initial_upper_is_certified(self):
        V, domain = self._setup()
        options = LevelSetOptions(strategy="batched", bisection_tolerance=0.05,
                                  initial_upper_bound=0.25,
                                  solver_settings=dict(max_iterations=4000))
        result = LevelSetMaximizer(options).maximize("m", V, domain)
        # The true optimum is ~2.99, far above the initial bound of 0.25: the
        # expansion ladder must have grown the bracket past it.
        assert result.level > 2.5
