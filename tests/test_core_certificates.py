"""Tests for the core verification machinery on small, fast systems."""

import numpy as np
import pytest

from repro.core import (
    AdvectionOptions,
    AttractiveInvariant,
    EscapeCertificateSynthesizer,
    EscapeOptions,
    LevelSetMaximizer,
    LevelSetOptions,
    LevelSetAdvector,
    LyapunovSynthesisOptions,
    MultipleLyapunovSynthesizer,
    VerificationReport,
    VerificationStatus,
    check_sublevel_inclusion,
    run_bounded_advection,
    sample_inclusion_counterexample,
    STEP_ATTRACTIVE_INVARIANT,
)
from repro.core.levelset import MaximizedLevelSet
from repro.core.properties import PropertyOneResult, PropertyTwoResult
from repro.exceptions import CertificateError
from repro.hybrid import HybridSystem, Mode
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.sos import SemialgebraicSet


@pytest.fixture()
def xy():
    x, y = make_variables("x", "y")
    return VariableVector([x, y])


def poly_vars(xv):
    return tuple(Polynomial.from_variable(v, xv) for v in xv)


def linear_decay_system(xv):
    """One-mode linear system dx = -x, dy = -y (trivially inevitable)."""
    px, py = poly_vars(xv)
    mode = Mode("only", 1, xv, (-px, -py), SemialgebraicSet(xv),
                contains_equilibrium=True)
    return HybridSystem("decay", xv, (mode,), (), equilibrium=np.zeros(2))


class TestInclusion:
    def test_disc_inclusion(self, xy):
        px, py = poly_vars(xy)
        small = px * px + py * py - 1.0
        large = px * px + py * py - 4.0
        assert check_sublevel_inclusion(small, large).holds
        assert not check_sublevel_inclusion(large, small).holds
        counterexample = sample_inclusion_counterexample(
            large, small, [(-3, 3), (-3, 3)])
        assert counterexample is not None
        assert large.evaluate(counterexample) <= 1e-9

    def test_ellipse_in_halfplane(self, xy):
        px, py = poly_vars(xy)
        ellipse = px * px + 4 * py * py - 1.0
        halfplane = px - 2.0          # {x <= 2}
        assert check_sublevel_inclusion(ellipse, halfplane).holds


class TestLyapunovAndLevelSets:
    def test_linear_decay_certificate(self, xy):
        system = linear_decay_system(xy)
        options = LyapunovSynthesisOptions(
            certificate_degree=2, lock_tube_radius=0.0, validate_samples=500,
            positivity_margin=0.05,
        )
        synthesizer = MultipleLyapunovSynthesizer(system, options,
                                                  region_box=[(-2, 2), (-2, 2)])
        result = synthesizer.synthesize()
        assert result.feasible
        V = result.certificate_for("only")
        assert V(1.0, 1.0) > 0
        assert V.lie_derivative([-poly_vars(xy)[0], -poly_vars(xy)[1]])(0.5, 0.5) <= 1e-8

    def test_region_box_does_not_leak_into_reused_options(self, xy):
        system = linear_decay_system(xy)
        options = LyapunovSynthesisOptions(certificate_degree=2, validate_samples=0)
        boxed = MultipleLyapunovSynthesizer(system, options=options,
                                            region_box=[(-9, 9)] * 2)
        assert boxed.options.domain_boxes == [(-9, 9)] * 2
        assert options.domain_boxes is None
        reused = MultipleLyapunovSynthesizer(system, options=options)
        assert reused.options.domain_boxes is None

    def test_level_set_maximization(self, xy):
        px, py = poly_vars(xy)
        V = px * px + py * py
        domain = SemialgebraicSet(xy, inequalities=(1.0 - px, px + 1.0,
                                                    1.0 - py, py + 1.0))
        maximizer = LevelSetMaximizer(LevelSetOptions(bisection_tolerance=0.05,
                                                      initial_upper_bound=4.0))
        level_set = maximizer.maximize("only", V, domain, bounds=[(-1, 1), (-1, 1)])
        # the largest disc inside the unit box has radius 1 -> level 1
        assert 0.8 <= level_set.level <= 1.05
        assert level_set.contains([0.5, 0.5])
        assert not level_set.contains([1.5, 0.0])


class TestAttractiveInvariant:
    def test_union_membership(self, xy):
        px, py = poly_vars(xy)
        ls1 = MaximizedLevelSet("m1", px * px + py * py, 1.0, iterations=1)
        ls2 = MaximizedLevelSet("m2", (px - 2) * (px - 2) + py * py, 0.25, iterations=1)
        invariant = AttractiveInvariant({"m1": ls1, "m2": ls2}, xy)
        assert invariant.contains([0.0, 0.0])
        assert invariant.contains([2.0, 0.1])
        assert not invariant.contains([1.5, 1.5])
        points = np.array([[0.0, 0.0], [5.0, 5.0]])
        np.testing.assert_array_equal(invariant.contains_points(points), [True, False])
        assert invariant.membership_margin([0.0, 0.0]) < 0
        assert len(invariant.summary_rows()) == 2

    def test_invariance_along_trajectory(self, xy):
        px, py = poly_vars(xy)
        ls = MaximizedLevelSet("m", px * px + py * py, 1.0, iterations=1)
        invariant = AttractiveInvariant({"m": ls}, xy)
        good = np.array([[2.0, 0.0], [0.9, 0.0], [0.5, 0.0], [0.1, 0.0]])
        assert invariant.is_invariant_along(good)
        bad = np.array([[0.5, 0.0], [1.5, 0.0]])
        assert not invariant.is_invariant_along(bad)


class TestAdvection:
    def test_composition_advection_shrinks_toward_origin(self, xy):
        px, py = poly_vars(xy)
        field = (-px, -py)
        advector = LevelSetAdvector(AdvectionOptions(time_step=0.1))
        level = px * px + py * py - 4.0
        advected, epsilon = advector.advect(level, field)
        assert epsilon == 0.0
        # points on the original boundary map inside the advected set boundary:
        # the advected set {a(y - h f(y)) <= 0} should contain slightly smaller discs.
        assert advected.evaluate([1.0, 0.0]) < 0
        assert advected.evaluate([2.3, 0.0]) > 0

    def test_bounded_advection_absorbs(self, xy):
        px, py = poly_vars(xy)
        field = (-px, -py)
        V = px * px + py * py
        invariant = AttractiveInvariant(
            {"only": MaximizedLevelSet("only", V, 1.0, iterations=1)}, xy)
        outer = px * px + py * py - 9.0
        result = run_bounded_advection(
            "only", outer, field, invariant,
            options=AdvectionOptions(time_step=0.25, max_iterations=30,
                                     inclusion_check_every=2),
        )
        assert result.converged
        assert result.absorbing_mode == "only"
        assert 1 <= result.iterations_used <= 30

    def test_sos_projection_advection(self, xy):
        px, py = poly_vars(xy)
        field = (-px, -py)
        advector = LevelSetAdvector(AdvectionOptions(time_step=0.2,
                                                     operator="sos_projection"))
        level = px * px + py * py - 1.0
        domain = SemialgebraicSet(xy, inequalities=(4.0 - px * px - py * py,))
        advected, epsilon = advector.advect(level, field, domain=domain)
        assert epsilon >= -1e-5
        assert advected.evaluate([0.0, 0.0]) < 0


class TestEscape:
    def test_escape_certificate_for_drift(self, xy):
        px, py = poly_vars(xy)
        # constant drift in +x: every trajectory leaves the unit box
        field = (Polynomial.constant(xy, 1.0), Polynomial.zero(xy))
        region = SemialgebraicSet(xy, inequalities=(1 - px, px + 1, 1 - py, py + 1))
        synthesizer = EscapeCertificateSynthesizer(EscapeOptions(certificate_degree=2))
        certificate = synthesizer.synthesize("drift", field, region,
                                             bounds=[(-1, 1), (-1, 1)])
        assert certificate.validation_passed
        assert certificate.escape_time_bound([(-1, 1), (-1, 1)]) > 0

    def test_escape_infeasible_for_stable_focus(self, xy):
        px, py = poly_vars(xy)
        # asymptotically stable system containing the equilibrium: no escape certificate
        field = (-px, -py)
        region = SemialgebraicSet(xy, inequalities=(1 - px * px - py * py,))
        synthesizer = EscapeCertificateSynthesizer(
            EscapeOptions(certificate_degree=2, decrease_rate=0.1))
        with pytest.raises(CertificateError):
            synthesizer.synthesize("stable", field, region, bounds=[(-1, 1), (-1, 1)])


class TestReport:
    def test_report_rendering_and_timing(self, xy):
        report = VerificationReport(
            system_name="toy",
            property_one=PropertyOneResult(status=VerificationStatus.VERIFIED),
            property_two=PropertyTwoResult(status=VerificationStatus.INCONCLUSIVE),
        )
        report.add_timing(STEP_ATTRACTIVE_INVARIANT, 1.5, detail="degree 2")
        assert report.inevitability_status is VerificationStatus.INCONCLUSIVE
        assert report.timing_for(STEP_ATTRACTIVE_INVARIANT) == pytest.approx(1.5)
        text = report.render_text()
        assert "Attractive Invariant" in text and "toy" in text

    def test_status_combination(self):
        V, I, F = (VerificationStatus.VERIFIED, VerificationStatus.INCONCLUSIVE,
                   VerificationStatus.FAILED)
        assert V.combine(V) is V
        assert V.combine(I) is I
        assert I.combine(F) is F
        assert F.combine(V) is F
