"""Scenario registry and workload-construction tests."""

import numpy as np
import pytest

from repro.core.inevitability import InevitabilityOptions
from repro.pll import PLLParameters
from repro.scenarios import (
    ScenarioProblem,
    all_scenarios,
    build_buck_converter_system,
    build_duffing_system,
    build_problem,
    build_vanderpol_system,
    fast_scenario_names,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.registry import _REGISTRY
from repro.utils import Interval


class TestRegistry:
    def test_at_least_six_scenarios(self):
        assert len(scenario_names()) >= 6

    def test_listing_is_sorted_and_stable(self):
        names = scenario_names()
        assert list(names) == sorted(names)
        assert [spec.name for spec in all_scenarios()] == list(names)

    def test_fast_subset(self):
        fast = fast_scenario_names()
        assert set(fast) <= set(scenario_names())
        assert "pll3" in fast

    def test_expected_outcomes_are_legal(self):
        for spec in all_scenarios():
            assert spec.expected in ("verified", "property_one",
                                     "inconclusive", "any")

    def test_pll4_deg4_registers_chordal(self):
        spec = get_scenario("pll4_deg4")
        assert spec.certificate_degree == 4
        assert spec.relaxation == "chordal"
        assert "chordal" in spec.tags
        problem = spec.build()
        # The registered relaxation lands on every stage's options.
        assert problem.options.lyapunov.relaxation == "chordal"
        assert problem.options.levelset.relaxation == "chordal"

    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(KeyError, match="available"):
            get_scenario("no_such_scenario")

    def test_duplicate_registration_rejected(self):
        existing = scenario_names()[0]
        with pytest.raises(ValueError, match="already registered"):
            @register_scenario(existing, "dup")
            def _dup(spec):  # pragma: no cover - never built
                raise AssertionError

    def test_registration_and_build_roundtrip(self):
        name = "_test_tmp_scenario"

        @register_scenario(name, "temporary", certificate_degree=2,
                           expected="any", tags=("test",))
        def _build(spec):
            system = build_vanderpol_system()
            return ScenarioProblem(
                system=system, bounds=[(-1, 1), (-1, 1)],
                options=InevitabilityOptions())

        try:
            problem = build_problem(name)
            assert problem.name == name
            assert problem.expected == "any"
        finally:
            _REGISTRY.pop(name, None)


class TestProblems:
    @pytest.mark.parametrize("name", ["pll3", "buck", "vanderpol", "duffing"])
    def test_build_produces_consistent_problem(self, name):
        problem = build_problem(name)
        assert problem.name == name
        assert len(problem.bounds) == problem.system.num_states
        assert problem.state_bounds() == list(problem.bounds)
        # The verifier-facing interface mirrors PLLVerificationModel.
        outer = problem.outer_set_polynomial()
        assert outer.evaluate([0.0] * problem.system.num_states) < 0
        fields = problem.nominal_fields()
        assert set(fields) == set(problem.system.mode_names)
        for mode_name in problem.system.mode_names:
            domain = problem.mode_domain(mode_name)
            assert domain.variables == problem.state_variables

    def test_pll3_wraps_verification_model(self):
        problem = build_problem("pll3")
        assert problem.pll_model is not None
        assert problem.supports_falsification
        # The outer set delegates to the underlying PLL model.
        direct = problem.pll_model.outer_set_polynomial(margin=1.0)
        assert (problem.outer_set_polynomial() - direct).max_abs_coefficient() == 0.0

    def test_pll_corner_scenario_pins_parameters(self):
        problem = build_problem("pll3_slow_corner")
        for interval in problem.pll_model.parameters.named_intervals().values():
            assert interval.is_degenerate()

    def test_weak_pump_is_degraded(self):
        nominal = build_problem("pll3").pll_model.parameters.i_p.center
        weak = build_problem("pll3_weak_pump").pll_model.parameters.i_p.center
        assert weak == pytest.approx(0.4 * nominal)

    def test_pinned_parameters_match_the_per_scenario_constructions(self):
        """The shared pinning helper rebuilds exactly the constants each PLL
        scenario constructed by hand, so conic data and cache keys stay put."""
        base = PLLParameters.third_order_paper()

        def point(name, **values):
            pinned = {key: Interval.point(values.get(key, interval.center))
                      for key, interval in base.named_intervals().items()}
            return PLLParameters(order=3, f_free=base.f_free, name=name, **pinned)

        swept_ip = 0.8 * base.i_p.center
        expected = {
            "pll3": point("third_order_swept", i_p=swept_ip),
            "pll3_slow_corner": point(
                "third_order_slow_corner", i_p=base.i_p.lower,
                c2=base.c2.upper, divider=base.divider.upper),
            "pll3_weak_pump": point("third_order_weak_pump",
                                    i_p=0.4 * base.i_p.center),
        }
        params = {"pll3": {"i_p": swept_ip}}
        for name, parameters in expected.items():
            built = build_problem(name, params=params.get(name)).pll_model.parameters
            assert built == parameters, name

    def test_bounds_mismatch_rejected(self):
        system = build_vanderpol_system()
        with pytest.raises(ValueError, match="bounds"):
            ScenarioProblem(system=system, bounds=[(-1, 1)],
                            options=InevitabilityOptions())


class TestNewSystems:
    def test_buck_modes_and_equilibrium(self):
        system = build_buck_converter_system()
        assert system.mode_names == ("mode2", "mode3")
        assert np.allclose(system.equilibrium, 0.0)
        # Opposite constant forcing at the origin: closed switch pushes the
        # current up, open switch pulls it down.
        up = system.mode("mode2").drift_at([0.0, 0.0])
        down = system.mode("mode3").drift_at([0.0, 0.0])
        assert up[0] > 0 > down[0]
        assert up[1] == pytest.approx(0.0)
        # Jumps are identity resets on the voltage sign guards.
        for transition in system.transitions:
            assert transition.is_identity_reset

    def test_vanderpol_origin_is_stable(self):
        system = build_vanderpol_system(mu=1.0)
        mode = system.mode("flow")
        assert np.allclose(mode.drift_at([0.0, 0.0]), 0.0)
        # Linearisation at the origin: [[0, -1], [1, -mu]] — Hurwitz.
        eps = 1e-6
        jac = np.column_stack([
            (mode.drift_at([eps, 0.0]) - mode.drift_at([-eps, 0.0])) / (2 * eps),
            (mode.drift_at([0.0, eps]) - mode.drift_at([0.0, -eps])) / (2 * eps),
        ])
        assert np.all(np.linalg.eigvals(jac).real < 0)

    def test_duffing_energy_decreases_along_flow(self):
        delta = 0.8
        system = build_duffing_system(delta=delta)
        mode = system.mode("flow")
        rng = np.random.default_rng(3)
        for point in rng.uniform(-1.0, 1.0, size=(25, 2)):
            x, y = point
            dx, dy = mode.drift_at(point)
            # dE/dt along the flow is exactly -delta * y^2 <= 0.
            de = (x + x ** 3) * dx + y * dy
            assert de == pytest.approx(-delta * y * y, abs=1e-9)
