"""Unit tests for the SOS programming layer."""

import pytest

from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.sos import (
    SemialgebraicSet,
    SOSProgram,
    SOSProgramError,
    add_positivity_on_set,
    ball_constraint,
    interval_constraints,
    sample_box,
    validate_decrease_along_field,
    validate_nonnegativity,
)


@pytest.fixture()
def xy():
    x, y = make_variables("x", "y")
    return VariableVector([x, y])


def polys(xv):
    return tuple(Polynomial.from_variable(v, xv) for v in xv)


class TestSOSProgram:
    def test_fixed_polynomial_is_sos(self, xy):
        px, py = polys(xy)
        program = SOSProgram()
        program.add_sos_constraint(px * px - 2 * px + 1 + py * py, name="p")
        solution = program.solve()
        assert solution.is_success
        assert solution.certificates["p"].is_numerically_sos()

    def test_negative_polynomial_not_sos(self, xy):
        px, _ = polys(xy)
        program = SOSProgram()
        program.add_sos_constraint(-px * px - 1, name="neg")
        solution = program.solve()
        assert not solution.is_success

    def test_fixed_odd_degree_rejected(self, xy):
        px, _ = polys(xy)
        program = SOSProgram()
        with pytest.raises(SOSProgramError):
            program.add_sos_constraint(px ** 3 + 1)

    def test_lower_bound_optimization(self, xy):
        """maximize gamma s.t. (x^2 - 2x + 3) - gamma is SOS  -> gamma* = 2."""
        px, py = polys(xy)
        program = SOSProgram()
        gamma = program.new_variable("gamma")
        target = px * px - 2 * px + 3 + py * py
        program.add_sos_constraint(target - gamma, name="bound")
        program.maximize(gamma)
        solution = program.solve()
        assert solution.is_success
        assert solution.value(gamma) == pytest.approx(2.0, abs=5e-3)

    def test_equality_constraint(self, xy):
        px, py = polys(xy)
        program = SOSProgram()
        p = program.new_polynomial_variable(xy, 2, name="p")
        program.add_equality_constraint(p - (px * px + py * py), name="match")
        solution = program.solve()
        assert solution.is_success
        assert solution.polynomial(p).almost_equal(px * px + py * py, tolerance=1e-5)

    def test_scalar_constraints(self):
        program = SOSProgram()
        t = program.new_variable("t")
        program.add_scalar_constraint(t - 1.0, sense=">=")
        program.add_scalar_constraint(5.0 - t, sense=">=")
        program.minimize(t)
        solution = program.solve()
        assert solution.is_success
        assert solution.value(t) == pytest.approx(1.0, abs=1e-3)

    def test_describe_counts(self, xy):
        program = SOSProgram("demo")
        sigma = program.new_sos_polynomial(xy, 2)
        assert program.num_sos_constraints == 1
        assert sigma.degree == 2
        assert "demo" in program.describe()


class TestSProcedure:
    def test_positivity_on_interval(self, xy):
        """x*(4 - x) is nonnegative on [0, 4] but not globally."""
        px, py = polys(xy)
        target = px * (4 - px)
        domain = SemialgebraicSet(xy, inequalities=(px, 4 - px))
        program = SOSProgram()
        add_positivity_on_set(program, target, domain, multiplier_degree=2)
        assert program.solve().is_success
        # without the domain it must fail
        program2 = SOSProgram()
        program2.add_sos_constraint(target)
        assert not program2.solve().is_success

    def test_lyapunov_for_stable_linear_system(self, xy):
        px, py = polys(xy)
        field = [-px + py, -px - py]
        domain = SemialgebraicSet(xy, inequalities=(ball_constraint(xy, 2.0),))
        program = SOSProgram()
        V = program.new_polynomial_variable(xy, 2, name="V", min_degree=2)
        add_positivity_on_set(program, V, domain, strictness=0.01)
        add_positivity_on_set(program, -V.lie_derivative(field), domain)
        solution = program.solve()
        assert solution.is_success
        V_num = solution.polynomial(V)
        assert V_num(1.0, 1.0) > 0
        assert V_num.lie_derivative(field)(0.5, -0.5) <= 1e-6

    def test_interval_and_ball_helpers(self, xy):
        constraints = interval_constraints(xy, [(-1.0, 1.0), (-2.0, 2.0)])
        assert len(constraints) == 2
        assert constraints[0].evaluate([0.0, 0.0]) > 0
        assert constraints[0].evaluate([2.0, 0.0]) < 0
        ball = ball_constraint(xy, 1.5, center=[1.0, 0.0])
        assert ball.evaluate([1.0, 0.0]) == pytest.approx(2.25)

    def test_semialgebraic_membership(self, xy):
        px, py = polys(xy)
        domain = SemialgebraicSet(xy, inequalities=(1 - px * px - py * py,),
                                  equalities=(px - py,))
        assert domain.contains([0.5, 0.5])
        assert not domain.contains([0.5, 0.0])
        assert not domain.contains([2.0, 2.0])

    def test_intersection_requires_same_variables(self, xy):
        domain = SemialgebraicSet(xy)
        other_vars = VariableVector(make_variables("a", "b"))
        with pytest.raises(ValueError):
            domain.intersect(SemialgebraicSet(other_vars))


class TestValidation:
    def test_validate_nonnegativity_pass_and_fail(self, xy):
        px, py = polys(xy)
        bounds = [(-1.0, 1.0), (-1.0, 1.0)]
        good = validate_nonnegativity(px * px + py * py, None, bounds, num_samples=500)
        assert good.passed
        bad = validate_nonnegativity(px, None, bounds, num_samples=500)
        assert not bad.passed
        assert bad.argmin is not None
        assert str(good).startswith("[PASS]") and str(bad).startswith("[FAIL]")
        # A domain no sample reaches (here ``x = 1/2``): the verdict stays
        # unchanged, but the report is labelled vacuous rather than PASS.
        pinned = SemialgebraicSet(xy, equalities=(px - 0.5,))
        vacuous = validate_nonnegativity(px, pinned, bounds, num_samples=500)
        assert vacuous.num_in_domain == 0
        assert vacuous.passed
        assert str(vacuous).startswith("[VACUOUS]")

    def test_validate_decrease(self, xy):
        px, py = polys(xy)
        V = px * px + py * py
        report = validate_decrease_along_field(V, [-px, -py], None,
                                                [(-1, 1), (-1, 1)], num_samples=400)
        assert report.passed

    def test_sample_box_shape(self):
        samples = sample_box([(-1, 1), (0, 2), (3, 4)], 100, seed=3)
        assert samples.shape == (100, 3)
        assert samples[:, 2].min() >= 3.0
