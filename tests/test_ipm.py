"""The batched interior-point method (``repro.sdp.ipm``) and its Farkas check."""

import shutil

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.lyapunov import MultipleLyapunovSynthesizer
from repro.scenarios import build_problem
from repro.sdp import (
    ConeDims,
    ConicProblem,
    SolveContext,
    SolverStatus,
    farkas_margin,
    smat,
    solve_cache_key,
    svec,
    svec_dim,
)
from repro.sdp.ipm import FARKAS_TOLERANCE, TOLERANCE, solve_batch
from repro.sweep import SweepOptions, SweepRunner, get_sweep_family


def _trace_one_sdp(C):
    """``min <C, X>  s.t.  tr X = 1,  X ⪰ 0``: the optimum is ``λ_min(C)``."""
    k = C.shape[0]
    return ConicProblem(c=svec(C), A=svec(np.eye(k))[None, :], b=[1.0],
                        dims=ConeDims(psd=(k,)))


def _eigenvalue_bound_sdp(C, shift=3.0):
    """``min u + v  s.t.  u I − C = X ⪰ 0,  v = shift``, with ``u, v`` free.

    The optimum is ``λ_max(C) + shift``.
    """
    k = C.shape[0]
    d = svec_dim(k)
    A = np.zeros((d + 1, 2 + d))
    A[:d, 0] = svec(np.eye(k))
    A[:d, 2:] = -np.eye(d)
    A[d, 1] = 1.0
    b = np.concatenate([svec(C), [shift]])
    c = np.zeros(2 + d)
    c[:2] = 1.0
    return ConicProblem(c=c, A=A, b=b, dims=ConeDims(free=2, psd=(k,)))


def _infeasible_sdp():
    """``X ⪰ 0`` of order 2 with ``X₀₀ = X₁₁ = 1`` and ``X₀₁ = 2``."""
    A = np.eye(3)
    b = np.array([1.0, 2.0 * np.sqrt(2.0), 1.0])
    return ConicProblem(c=np.zeros(3), A=A, b=b, dims=ConeDims(psd=(2,)))


def _independent_margin(problem, y):
    """The Farkas margin recomputed densely, without ``farkas_margin``."""
    y = np.asarray(y, dtype=float) / float(problem.b @ y)
    z = -(problem.A.toarray().T @ y)
    dims = problem.dims
    parts = [np.abs(z[:dims.free]).max(initial=0.0),
             (-z[dims.free:dims.free + dims.nonneg]).max(initial=0.0)]
    offset = dims.free + dims.nonneg
    for order in dims.psd:
        block = smat(z[offset:offset + svec_dim(order)], order)
        parts.append(-np.linalg.eigvalsh(block)[0])
        offset += svec_dim(order)
    return max(parts)


class TestSolutions:
    def test_sdp_with_known_optimum(self):
        rng = np.random.default_rng(0)
        C = rng.normal(size=(5, 5))
        C = C + C.T
        result = solve_batch([_trace_one_sdp(C)])[0]
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(np.linalg.eigvalsh(C)[0], abs=1e-7)
        assert result.equality_residual <= 1e-10
        assert result.cone_violation == 0.0
        assert result.primal_residual <= TOLERANCE
        assert result.dual_residual <= TOLERANCE

    def test_lp_on_the_nonneg_cone(self):
        # min cᵀx  s.t.  Σx = 1, x₀ − x₁ = 0, x ≥ 0: the best of c₂..c₄
        # and the average of c₀, c₁.
        c = np.array([0.3, 0.1, 0.9, 0.25, 0.4])
        A = np.vstack([np.ones(5), [1.0, -1.0, 0.0, 0.0, 0.0]])
        problem = ConicProblem(c=c, A=A, b=[1.0, 0.0], dims=ConeDims(nonneg=5))
        result = solve_batch([problem])[0]
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(0.2, abs=1e-7)
        np.testing.assert_allclose(result.x, [0.5, 0.5, 0.0, 0.0, 0.0], atol=1e-6)

    def test_free_columns_with_an_objective(self):
        rng = np.random.default_rng(1)
        C = rng.normal(size=(4, 4))
        C = C + C.T
        result = solve_batch([_eigenvalue_bound_sdp(C)])[0]
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(np.linalg.eigvalsh(C)[-1] + 3.0,
                                                 abs=1e-7)
        assert result.x[1] == pytest.approx(3.0, abs=1e-9)
        assert result.equality_residual <= 1e-9

    def test_feasibility_problem_ends_feasible(self):
        problem = _trace_one_sdp(np.zeros((3, 3)))
        result = solve_batch([problem])[0]
        assert result.status is SolverStatus.FEASIBLE
        assert result.is_success
        assert np.linalg.eigvalsh(smat(result.x, 3))[0] > 0.0


class TestInfeasibility:
    def test_certificate_passes_the_check(self):
        problem = _infeasible_sdp()
        result = solve_batch([problem])[0]
        assert result.status is SolverStatus.INFEASIBLE
        assert not result.is_success
        y = result.info["farkas_y"]
        assert float(problem.b @ y) == pytest.approx(1.0)
        assert farkas_margin(problem, y) <= FARKAS_TOLERANCE
        assert result.info["farkas_margin"] == farkas_margin(problem, y)
        assert _independent_margin(problem, y) <= FARKAS_TOLERANCE
        # The last primal iterate comes back on every status.
        assert result.x is not None and result.x.shape == (3,)

    def test_corrupted_certificate_fails_the_check(self):
        problem = _infeasible_sdp()
        y = solve_batch([problem])[0].info["farkas_y"]
        corrupted = y + np.array([0.0, 0.0, 0.5])
        assert float(problem.b @ corrupted) > 0.0
        assert farkas_margin(problem, corrupted) > FARKAS_TOLERANCE
        assert _independent_margin(problem, corrupted) > FARKAS_TOLERANCE
        assert farkas_margin(problem, -y) == float("inf")
        assert farkas_margin(problem, np.full(3, np.nan)) == float("inf")

    def test_free_columns_and_nonneg_enter_the_margin(self):
        # x_f − x_n = −1 has a solution (x_f free), x_n = −1 has none.
        solvable = ConicProblem(c=np.zeros(2), A=[[1.0, -1.0]], b=[-1.0],
                                dims=ConeDims(free=1, nonneg=1))
        assert farkas_margin(solvable, np.array([-1.0])) == pytest.approx(1.0)
        infeasible = ConicProblem(c=np.zeros(1), A=[[1.0]], b=[-1.0],
                                  dims=ConeDims(nonneg=1))
        result = solve_batch([infeasible])[0]
        assert result.status is SolverStatus.INFEASIBLE
        assert farkas_margin(infeasible, result.info["farkas_y"]) == 0.0

    def test_inconsistent_rows_are_refuted_before_the_loop(self):
        # A zero row with a nonzero right-hand side, and two multiples of one
        # row with inconsistent right-hand sides.
        for A, b in (([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], [1.0, 2.0]),
                     ([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]], [1.0, 3.0])):
            problem = ConicProblem(c=np.zeros(3), A=A, b=b, dims=ConeDims(nonneg=3))
            result = solve_batch([problem])[0]
            assert result.status is SolverStatus.INFEASIBLE
            assert result.iterations == 0
            assert farkas_margin(problem, result.info["farkas_y"]) <= FARKAS_TOLERANCE
        consistent = ConicProblem(c=np.zeros(3), A=[[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]],
                                  b=[1.0, 2.0], dims=ConeDims(nonneg=3))
        assert solve_batch([consistent])[0].status is SolverStatus.FEASIBLE


class TestBatches:
    def _family(self):
        rng = np.random.default_rng(2)
        problems = []
        for _ in range(3):
            C = rng.normal(size=(4, 4))
            problems.append(_trace_one_sdp(C + C.T))
        problems.append(_infeasible_sdp())
        problems.append(_eigenvalue_bound_sdp(np.diag([1.0, 2.0, 3.0])))
        return problems

    def test_members_match_solving_alone_bitwise(self):
        problems = self._family()
        batched = solve_batch(problems)
        for problem, result in zip(problems, batched):
            alone = solve_batch([problem])[0]
            assert result.status is alone.status
            assert result.iterations == alone.iterations
            assert np.array_equal(result.x, alone.x)
            assert result.primal_residual == alone.primal_residual
            assert result.dual_residual == alone.dual_residual
        assert [r.status for r in batched] == [SolverStatus.OPTIMAL] * 3 + [
            SolverStatus.INFEASIBLE, SolverStatus.OPTIMAL]
        assert batched[0].info["batch_size"] == 3

    def test_nan_member_fails_alone(self):
        problems = self._family()[:3]
        broken = _trace_one_sdp(np.eye(4))
        broken.b[0] = np.nan
        results = solve_batch([problems[0], broken, problems[1], problems[2]])
        assert results[1].status is SolverStatus.NUMERICAL_ERROR
        assert results[1].x is None
        for problem, result in zip(problems, [results[0], results[2], results[3]]):
            alone = solve_batch([problem])[0]
            assert result.status is SolverStatus.OPTIMAL
            assert np.array_equal(result.x, alone.x)


class TestSolveContextDispatch:
    def test_ipm_keys_counters_and_cache(self, tmp_path):
        from repro.engine.cache import CertificateCache

        problem = _infeasible_sdp()
        key = solve_cache_key(problem, {}, "ipm")
        assert key != solve_cache_key(problem, {})
        context = SolveContext(cache=CertificateCache(tmp_path))
        first = context.solve(problem, solver="ipm")
        again = context.solve_many([problem], solver="ipm")[0]
        assert first.status is again.status is SolverStatus.INFEASIBLE
        assert np.array_equal(first.info["farkas_y"], again.info["farkas_y"])
        counters = context.solve_counters()
        assert counters["solved"] == 1 and counters["cache_hit"] == 1

    def test_settings_are_refused(self):
        context = SolveContext()
        with pytest.raises(TypeError, match="no settings"):
            context.solve(_infeasible_sdp(), solver="ipm", max_iterations=10)
        with pytest.raises(TypeError, match="no settings"):
            context.solve_many([_infeasible_sdp()], solver="ipm", rho=2.0)
        with pytest.raises(ValueError, match="unknown solver"):
            context.solve(_infeasible_sdp(), solver="simplex")


class TestLyapunovRefutation:
    """The Lyapunov programs of pll3 and buck are infeasible (ROADMAP item 6).

    When item 6 finds a feasible formulation, this becomes a feasibility test.
    """

    @pytest.mark.parametrize("scenario", ["pll3", "buck"])
    def test_program_is_refuted(self, scenario):
        problem = build_problem(scenario).fill_option_defaults()
        synthesizer = MultipleLyapunovSynthesizer(
            problem.system, options=problem.options.lyapunov)
        program, _ = synthesizer.build_program()
        conic = program.compile()[0].build()
        result = SolveContext().solve(conic, solver="ipm")
        assert result.status is SolverStatus.INFEASIBLE
        y = result.info["farkas_y"]
        assert farkas_margin(conic, y) <= FARKAS_TOLERANCE
        assert _independent_margin(conic, y) <= FARKAS_TOLERANCE


def test_ladder_probes_in_the_certified_range_are_refuted(pll3_run, tmp_path):
    """Three ``pll3_ip_ladder`` points, Ip at 95–100% of nominal."""
    family = get_sweep_family("pll3_ip_ladder").reconfigure(
        grid={"i_p": (0.95, 1.0, 3)})
    cache_dir = tmp_path / "cache"
    shutil.copytree(pll3_run.cache_dir, cache_dir)
    probes = []
    solve_many = SolveContext.solve_many

    def recording(self, problems, warm_starts=None, **kwargs):
        results = solve_many(self, problems, warm_starts, **kwargs)
        probes.append((kwargs, list(problems), results))
        return results

    try:
        SolveContext.solve_many = recording
        report = SweepRunner(SweepOptions(jobs=1, cache_dir=str(cache_dir))).run(family)
    finally:
        SolveContext.solve_many = solve_many

    assert report.run["anchor"]["counters"].get("solved", 0) == 0
    assert [p["certified"] for p in report.points] == [True] * 3
    assert [p["probe"]["status"] for p in report.points] == ["infeasible"] * 3
    ((kwargs, conics, results),) = probes
    assert kwargs == {"solver": "ipm"}
    for conic, result in zip(conics, results):
        assert result.status is SolverStatus.INFEASIBLE
        y = result.info["farkas_y"]
        assert _independent_margin(conic, y) <= FARKAS_TOLERANCE
        assert isinstance(conic.A, sp.csr_matrix)


def _record_group_members(monkeypatch, measure=len):
    """A list that gets ``measure(members)`` of every ``_Group.solve`` call."""
    from repro.sdp import ipm

    seen = []
    solve = ipm._Group.solve

    def recording(self, members):
        seen.append(measure(members))
        return solve(self, members)

    monkeypatch.setattr(ipm._Group, "solve", recording)
    return seen


def test_ladder_probes_stop_at_the_refuting_mode2_block(pll3_run, tmp_path, monkeypatch):
    """Each Ip-ladder probe is refuted by mode2's block; mode3's is not solved."""
    from repro.sdp import ipm

    family = get_sweep_family("pll3_ip_ladder").reconfigure(
        grid={"i_p": (0.95, 1.0, 3)})
    cache_dir = tmp_path / "cache"
    shutil.copytree(pll3_run.cache_dir, cache_dir)
    members = _record_group_members(monkeypatch)
    probes = []
    solve_many = SolveContext.solve_many

    def recording(self, problems, warm_starts=None, **kwargs):
        results = solve_many(self, problems, warm_starts, **kwargs)
        probes.extend(zip(problems, results))
        return results

    monkeypatch.setattr(SolveContext, "solve_many", recording)
    SweepRunner(SweepOptions(jobs=1, cache_dir=str(cache_dir))).run(family)

    assert members == [1, 3]
    assert len(probes) == 3
    for conic, result in probes:
        assert result.status is SolverStatus.INFEASIBLE
        assert result.info["components"] == 3
        assert result.info["refuted_component"] == 1
        assert result.info["solved_components"] == 2
        split = ipm._Split(conic.dims, conic.A, None)
        mode3_columns = split.blocks[2][1]
        assert not result.x[mode3_columns].any()


def _stacked(*problems):
    """The block-diagonal problem of PSD-only ``problems``, in order."""
    return ConicProblem(
        c=np.concatenate([p.c for p in problems]),
        A=sp.block_diag([p.A for p in problems], format="csr"),
        b=np.concatenate([p.b for p in problems]),
        dims=ConeDims(psd=sum((p.dims.psd for p in problems), ())))


def _feasible_block(seed):
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(4, 4))
    return _trace_one_sdp(C + C.T)


class TestBlockSplit:
    def test_one_infeasible_block_refutes_the_problem(self):
        feasible, infeasible = _feasible_block(3), _infeasible_sdp()
        problem = _stacked(feasible, infeasible)
        result = solve_batch([problem])[0]
        assert result.status is SolverStatus.INFEASIBLE
        assert result.info["components"] == 2
        assert result.info["refuted_component"] == 1
        y = result.info["farkas_y"]
        assert y.shape == (problem.num_constraints,)
        assert not y[:feasible.num_constraints].any()
        assert farkas_margin(problem, y) <= FARKAS_TOLERANCE
        assert result.info["farkas_margin"] == farkas_margin(problem, y)
        assert _independent_margin(problem, y) <= FARKAS_TOLERANCE
        assert result.x.shape == (problem.num_variables,)

    def test_feasible_blocks_match_solving_each_alone_bitwise(self):
        first, second = _feasible_block(4), _trace_one_sdp(np.diag([3.0, 1.0, 2.0]))
        result = solve_batch([_stacked(first, second)])[0]
        alone = solve_batch([first, second])
        assert result.status is SolverStatus.OPTIMAL
        assert result.info["components"] == 2
        assert np.array_equal(result.x, np.concatenate([r.x for r in alone]))
        assert result.iterations == max(r.iterations for r in alone)
        assert result.primal_residual == max(r.primal_residual for r in alone)
        assert result.dual_residual == max(r.dual_residual for r in alone)
        assert result.objective == pytest.approx(sum(r.objective for r in alone))

    def test_identical_blocks_are_solved_once(self, monkeypatch):
        from repro.sdp import ipm

        shared = _feasible_block(5)
        batch = [_stacked(shared, _feasible_block(seed)) for seed in (6, 7)]
        members = []
        solve = ipm._Group.solve

        def counting(self, group_members):
            members.append(len(group_members))
            return solve(self, group_members)

        monkeypatch.setattr(ipm._Group, "solve", counting)
        results = solve_batch(batch)
        # One group (every block has the same A): the shared block once,
        # then each problem's own block.
        assert members == [3]
        assert [r.status for r in results] == [SolverStatus.OPTIMAL] * 2
        assert np.array_equal(results[0].x[:10], results[1].x[:10])
        assert results[0].x is not results[1].x

    def test_block_certificate_is_checked_on_the_whole_problem(self, monkeypatch):
        from repro.sdp import ipm

        problem = _stacked(_feasible_block(8), _infeasible_sdp())
        check = ipm.farkas_margin

        def whole_problem_rejects(candidate, y):
            return float("inf") if candidate is problem else check(candidate, y)

        monkeypatch.setattr(ipm, "farkas_margin", whole_problem_rejects)
        result = solve_batch([problem])[0]
        assert result.status is SolverStatus.NUMERICAL_ERROR
        assert "farkas_y" not in result.info
        assert "refuted_component" not in result.info

    def test_row_less_psd_block_is_a_block_of_its_own(self):
        # A PSD block no row touches: with zero cost it is feasible at the
        # interior start, with a positive definite cost its optimum is 0.
        constrained = _trace_one_sdp(np.diag([1.0, 2.0, 3.0]))
        A = sp.hstack([constrained.A, sp.csr_matrix((1, svec_dim(3)))], format="csr")
        for cost, status in ((np.zeros((3, 3)), SolverStatus.FEASIBLE),
                             (np.eye(3), SolverStatus.OPTIMAL)):
            problem = ConicProblem(c=np.concatenate([constrained.c, svec(cost)]), A=A,
                                   b=constrained.b, dims=ConeDims(psd=(3, 3)))
            result = solve_batch([problem])[0]
            assert result.status is SolverStatus.OPTIMAL
            assert result.info["components"] == 2
            assert result.objective == pytest.approx(1.0, abs=1e-7)
            free_block = smat(result.x[svec_dim(3):], 3)
            assert np.linalg.eigvalsh(free_block)[0] >= 0.0
            alone = solve_batch([ConicProblem(c=svec(cost), A=np.zeros((0, svec_dim(3))),
                                              b=np.zeros(0), dims=ConeDims(psd=(3,)))])[0]
            assert alone.status is status
            assert np.array_equal(alone.x, result.x[svec_dim(3):])

    def test_single_block_problem_reports_one_component(self):
        result = solve_batch([_infeasible_sdp()])[0]
        assert result.info["components"] == 1
        assert result.info["refuted_component"] == 0

    def test_pll3_lyapunov_program_is_one_block(self):
        problem = build_problem("pll3").fill_option_defaults()
        synthesizer = MultipleLyapunovSynthesizer(
            problem.system, options=problem.options.lyapunov)
        program, _ = synthesizer.build_program()
        result = solve_batch([program.compile()[0].build()])[0]
        assert result.info["components"] == 1
        assert result.status is SolverStatus.INFEASIBLE
        assert result.iterations == 15

    def test_refuting_block_first_skips_the_later_block(self, monkeypatch):
        problem = _stacked(_infeasible_sdp(), _feasible_block(9))
        alone = solve_batch([_infeasible_sdp()])[0]
        members = _record_group_members(
            monkeypatch, lambda group: [member.num_constraints for member, _ in group])
        result = solve_batch([problem])[0]
        # Only the infeasible block (three rows) is solved.
        assert members == [[3]]
        assert result.status is SolverStatus.INFEASIBLE
        assert result.info["refuted_component"] == 0
        assert result.info["components"] == 2
        assert result.info["solved_components"] == 1
        assert not result.x[3:].any()
        assert np.array_equal(result.x[:3], alone.x)
        assert result.iterations == alone.iterations
        assert result.primal_residual == alone.primal_residual
        padded = np.concatenate([alone.info["farkas_y"], [0.0]])
        assert np.array_equal(result.info["farkas_y"], padded)
        assert farkas_margin(problem, result.info["farkas_y"]) <= FARKAS_TOLERANCE

    def test_refuted_problem_does_not_depend_on_its_batch(self, monkeypatch):
        problem = _stacked(_infeasible_sdp(), _feasible_block(9))
        later_block = _feasible_block(9)
        alone = solve_batch([problem])[0]
        members = _record_group_members(monkeypatch)
        first, batched = solve_batch([later_block, problem])
        # later_block's group comes first and solves the problem's second
        # block with it (one member); the problem still reads only its first.
        assert members == [1, 1]
        assert first.status is SolverStatus.OPTIMAL
        assert batched.status is alone.status is SolverStatus.INFEASIBLE
        assert np.array_equal(batched.x, alone.x)
        assert not batched.x[3:].any()
        assert batched.iterations == alone.iterations
        assert batched.primal_residual == alone.primal_residual
        assert batched.dual_residual == alone.dual_residual
        assert batched.objective == alone.objective
        assert batched.equality_residual == alone.equality_residual
        assert np.array_equal(batched.info["farkas_y"], alone.info["farkas_y"])
        assert batched.info["farkas_margin"] == alone.info["farkas_margin"]
        assert batched.info["solved_components"] == alone.info["solved_components"] == 1

    def test_rejected_block_certificate_solves_the_later_block(self, monkeypatch):
        from repro.sdp import ipm

        later_block = _feasible_block(10)
        problem = _stacked(_infeasible_sdp(), later_block)
        check = ipm.farkas_margin

        def whole_problem_rejects(candidate, y):
            return float("inf") if candidate is problem else check(candidate, y)

        monkeypatch.setattr(ipm, "farkas_margin", whole_problem_rejects)
        members = _record_group_members(monkeypatch)
        result = solve_batch([problem])[0]
        assert members == [1, 1]
        assert result.status is SolverStatus.NUMERICAL_ERROR
        assert "refuted_component" not in result.info
        assert result.info["solved_components"] == 2
        assert np.array_equal(result.x[3:], solve_batch([later_block])[0].x)
