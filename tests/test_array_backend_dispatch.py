"""Solver dispatch tests.

``solve_conic_problem`` and ``solve_conic_problems`` route every solve into
the NumPy ADMM solver (single or batched loop): the routes must agree with
each other and with a directly constructed solver, and settings the solver
does not know are rejected.
"""

import warnings

import numpy as np
import pytest

from repro.core.inclusion import ParametricInclusionFamily
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.sdp import (
    ADMMConicSolver,
    ADMMSettings,
    SolveContext,
    solve_conic_problem,
    solve_conic_problems,
)


def _ball_family(cone="psd"):
    """{x'Qx <= theta} subset of {x'Qx <= 4}: certifiable iff theta <= 4."""
    x, y = make_variables("x", "y")
    xv = VariableVector([x, y])
    px = Polynomial.from_variable(x, xv)
    py = Polynomial.from_variable(y, xv)
    V = px * px + 2.0 * py * py + 0.5 * px * py
    family = ParametricInclusionFamily(V, V - 4.0, multiplier_degree=2,
                                       cone=cone)
    family.compile()
    return family


def _ladder(count):
    """θ levels spanning the feasibility threshold at 4."""
    return np.concatenate([
        np.linspace(0.1, 3.6, count // 2),
        np.linspace(4.4, 8.0, count - count // 2),
    ])


class TestNumpyParityWithReference:
    """Independent routes into the NumPy loop give bit-identical results."""

    def test_solve_conic_problems_results_and_counters(self):
        problems = _ball_family().bind_many(_ladder(12))

        reference_ctx = SolveContext(name="reference")
        replay_ctx = SolveContext(name="replay")
        reference = solve_conic_problems(problems, context=reference_ctx,
                                         max_iterations=4000)
        replay = solve_conic_problems(problems, context=replay_ctx,
                                      max_iterations=4000)
        assert replay_ctx.solve_counters() == reference_ctx.solve_counters()
        assert reference_ctx.solve_counters()["solved"] == len(problems)
        for ref, got in zip(reference, replay):
            assert got.status == ref.status
            assert got.iterations == ref.iterations
            assert got.objective == ref.objective
            np.testing.assert_array_equal(got.x, ref.x)
        assert replay[0].info["batch_size"] == len(problems)

    def test_serial_admm_identical_iterates(self):
        """The context route solves exactly as a directly built solver."""
        for problem in _ball_family().bind_many([1.0, 6.0]):
            ref = ADMMConicSolver(ADMMSettings(max_iterations=3000)).solve(problem)
            got = solve_conic_problem(problem, context=SolveContext(name="single"),
                                      max_iterations=3000)
            assert got.status == ref.status
            assert got.iterations == ref.iterations
            np.testing.assert_array_equal(got.x, ref.x)


class TestBatchMatchesPerProblem:
    """Acceptance: >=64 binds, batch == per-problem solves."""

    def test_batch_of_64_binds_matches_serial(self):
        family = _ball_family(cone="chordal")
        problems = family.bind_many(_ladder(64))
        batch = solve_conic_problems(problems,
                                     context=SolveContext(name="batch64"),
                                     max_iterations=4000)
        serial_solver = ADMMConicSolver(ADMMSettings(max_iterations=4000))
        for problem, got in zip(problems, batch):
            ref = serial_solver.solve(problem)
            assert got.status == ref.status
            np.testing.assert_allclose(got.objective, ref.objective,
                                       atol=1e-10)


class TestDeprecationHygiene:
    def test_keyword_admm_settings_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ADMMSettings(max_iterations=2000, rho=2.5)

    def test_unknown_setting_type_error_lists_new_knobs(self):
        # The removed array-namespace and asynchronous-batch knobs, and the
        # solver constants that used to be settings, are unknown to the
        # solver; the error lists the knobs that exist.
        problem = _ball_family().bind(1.0)
        for knob, value in (("array_backend", "numpy"), ("async_mode", True),
                            ("staleness_bound", 25), ("adaptive_rho", False),
                            ("rho_update_interval", 50),
                            ("kkt_regularization", 1e-8),
                            ("stall_improvement", 0.8), ("scale_problem", False),
                            ("over_relaxation", 1.0), ("history_stride", 10),
                            ("verbose", True), ("infeasibility_interval", 50),
                            ("infeasibility_min_iteration", 100),
                            ("infeasibility_rel_change", 1e-2),
                            ("infeasibility_streak", 3)):
            with pytest.raises(TypeError) as excinfo:
                solve_conic_problem(problem, context=SolveContext(name="typo"),
                                    **{knob: value})
            message = str(excinfo.value)
            assert knob in message
            assert "max_iterations" in message and "rho" in message
