"""Batched relay-abstraction integrator and the falsification claims it feeds."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    check_certificate_decrease_along_trajectories,
    random_initial_states,
    run_falsification,
    simulate_relay_abstraction,
)
from repro.analysis.falsification import _BLOCK_STEPS, _step_count
from repro.core.attractive import AttractiveInvariant
from repro.core.levelset import MaximizedLevelSet
from repro.engine import certificates_to_data
from repro.engine.engine import _step_falsification
from repro.polynomial import Polynomial, PolynomialStack
from repro.scenarios import build_problem

MODES = ("mode1", "mode2", "mode3")


@pytest.fixture(scope="module")
def problem():
    return build_problem("pll3")


@pytest.fixture(scope="module")
def model(problem):
    return problem.pll_model


@pytest.fixture(scope="module")
def states(model):
    return random_initial_states(model, 6, rng=np.random.default_rng(0))


def _scalar_reference(model, x0, duration, dt):
    """One state at a time, one mode's field per step: the unbatched loop."""
    fields = model.nominal_fields()
    stacks = {name: PolynomialStack(fields[name], model.state_variables)
              for name in MODES}
    state = np.array(x0, dtype=float)
    trajectory = [state]
    for _ in range(_step_count(duration, dt)):
        e = state[-1]
        mode = "mode2" if e > 0 else "mode3" if e < 0 else "mode1"
        state = state + dt * stacks[mode].evaluate(state)
        trajectory.append(state)
    return np.array(trajectory)


def _assert_matches_reference(model, states, trajectories, duration):
    """Same sign of ``e`` at every step as the per-step loop, states to 1e-9."""
    for x0, trajectory in zip(states, trajectories):
        reference = _scalar_reference(model, x0, duration, 1e-3)
        assert np.array_equal(np.sign(trajectory[:, -1]), np.sign(reference[:, -1]))
        np.testing.assert_allclose(trajectory, reference, rtol=0, atol=1e-9)


def _rising_certificates(model, scale=1e3):
    """``-scale (v1² + v2²)`` for every mode: it rises as the loop locks."""
    variables = model.state_variables
    voltages = [Polynomial.from_variable(v, variables) for v in variables[:-1]]
    rising = Polynomial.zero(variables)
    for v in voltages:
        rising = rising - scale * v * v
    return {name: rising for name in MODES}


def _bowl(model):
    variables = model.state_variables
    bowl = Polynomial.zero(variables)
    for v in variables:
        bowl = bowl + Polynomial.from_variable(v, variables) ** 2
    return bowl


def _invariant(model):
    return AttractiveInvariant(
        {"mode1": MaximizedLevelSet("mode1", _bowl(model), 1.0, iterations=0)},
        model.state_variables)


def _levels():
    return {name: {"level": 1.0} for name in MODES}


class TestStepCount:
    def test_rounds_instead_of_truncating(self):
        assert _step_count(0.3, 0.1) == 3
        assert _step_count(40.0, 1e-3) == 40000
        assert _step_count(20.0, 1e-3) == 20000

    def test_trajectory_covers_the_duration(self, model):
        trajectory = simulate_relay_abstraction(model, [0.5, -0.5, 0.2],
                                                duration=0.3, dt=0.1)
        assert trajectory.shape == (4, 3)


class TestBatchedIntegrator:
    def test_matches_per_state_scalar_loop(self, model, states):
        batch = simulate_relay_abstraction(model, states, duration=40.0)
        assert batch.shape == (6, 40001, 3)
        _assert_matches_reference(model, states, batch, 40.0)

    @pytest.mark.parametrize(
        "scenario", ["pll3_slow_corner", "pll3_uncertain", "pll3_weak_pump"])
    def test_variant_matches_per_state_scalar_loop(self, scenario):
        variant = build_problem(scenario)
        assert variant.supports_falsification
        model = variant.pll_model
        states = random_initial_states(model, 4, rng=np.random.default_rng(0))
        batch = simulate_relay_abstraction(model, states, duration=40.0)
        _assert_matches_reference(model, states, batch, 40.0)

    def test_single_state_keeps_its_shape(self, model, states):
        single = simulate_relay_abstraction(model, states[0], duration=2.0)
        batch = simulate_relay_abstraction(model, states, duration=2.0)
        assert single.shape == (2001, 3)
        assert np.array_equal(single, batch[0])

    def test_prefix_of_a_longer_run_is_the_shorter_run(self, model, states):
        long = simulate_relay_abstraction(model, states, duration=40.0)
        short = simulate_relay_abstraction(model, states, duration=20.0)
        assert np.array_equal(long[:, :short.shape[1]], short)


class TestBlockEdges:
    def test_state_on_the_sliding_surface_takes_a_mode1_step(self, model):
        x0 = np.array([0.5, -0.5, 0.0])
        trajectory = simulate_relay_abstraction(model, x0, duration=0.6)
        mode1 = PolynomialStack(model.nominal_fields()["mode1"],
                                model.state_variables)
        np.testing.assert_allclose(trajectory[1], x0 + 1e-3 * mode1.evaluate(x0),
                                   rtol=0, atol=1e-15)
        _assert_matches_reference(model, [x0], [trajectory], 0.6)

    def test_step_count_off_the_block_grid(self, model, states):
        steps = 2 * _BLOCK_STEPS + 37
        batch = simulate_relay_abstraction(model, states, duration=steps * 1e-3)
        assert batch.shape == (6, steps + 1, 3)
        _assert_matches_reference(model, states, batch, steps * 1e-3)

    def test_zero_duration_is_the_initial_states(self, model, states):
        batch = simulate_relay_abstraction(model, states, duration=0.0)
        assert batch.shape == (6, 1, 3)
        assert np.array_equal(batch[:, 0], states)

    def test_one_mode_segment_over_several_blocks(self, model):
        x0 = np.array([-1.0, -1.0, 0.9])
        duration = 4 * _BLOCK_STEPS * 1e-3
        reference = _scalar_reference(model, x0, duration, 1e-3)
        assert np.all(reference[:3 * _BLOCK_STEPS + 1, -1] > 0)
        trajectory = simulate_relay_abstraction(model, x0, duration=duration)
        _assert_matches_reference(model, [x0], [trajectory], duration)

    def test_non_affine_field_names_its_mode(self, model):
        variables = model.state_variables
        fields = dict(model.nominal_fields())
        v1 = Polynomial.from_variable(variables[0], variables)
        fields["mode2"] = (fields["mode2"][0] + v1 * v1,) + fields["mode2"][1:]

        class QuadraticMode2:
            state_variables = variables

            def nominal_fields(self):
                return fields

        with pytest.raises(ValueError, match="mode2"):
            simulate_relay_abstraction(QuadraticMode2(), [0.1, 0.1, 0.1],
                                       duration=0.1)


class TestFaultInjection:
    def test_decrease_step_index_points_into_the_trajectory(self, problem, model,
                                                            states):
        certificates = _rising_certificates(model)
        tube = problem.options.lyapunov.lock_tube_radius
        findings = check_certificate_decrease_along_trajectories(
            model, certificates, states, duration=20.0, tolerance=5e-2,
            tube_radius=tube)
        assert findings
        trajectories = simulate_relay_abstraction(model, states, duration=20.0)
        for finding in findings:
            row = next(i for i, x0 in enumerate(states)
                       if np.array_equal(x0, finding.initial_state))
            mode = finding.claim.split()[-2]
            k = finding.step_index
            before, after = trajectories[row, k - 1:k + 1]
            rise = certificates[mode].evaluate(after) \
                - certificates[mode].evaluate(before)
            assert rise == pytest.approx(finding.worst_value, rel=1e-9)
            assert min(np.linalg.norm(before[:-1]), np.linalg.norm(after[:-1])) > tube

    def test_run_falsification_finds_a_rising_certificate(self, problem, model,
                                                          states):
        findings = run_falsification(
            model, _invariant(model), certificates=_rising_certificates(model),
            initial_states=states, duration=40.0, tolerance=5e-2,
            tube_radius=problem.options.lyapunov.lock_tube_radius)
        assert any(f.claim.startswith("V non-increasing") for f in findings)

    def test_run_falsification_finds_a_missed_lock(self, model, states):
        findings = run_falsification(model, _invariant(model), initial_states=states,
                                     duration=40.0, lock_radius=1e-9)
        claims = [f.claim for f in findings]
        assert claims == ["convergence to the lock neighbourhood"] * len(states)

    def test_engine_step_fails_on_a_rising_certificate(self, problem, model):
        status, _, data = _step_falsification(
            problem, certificates_to_data(_rising_certificates(model)),
            _levels(), seed=0)
        assert status == "failed"
        assert any("V non-increasing" in f for f in data["findings"])

    def test_engine_step_fails_on_a_missed_lock(self, problem, model):
        tiny = dataclasses.replace(problem, lock_radius=1e-9)
        status, _, data = _step_falsification(
            tiny, certificates_to_data({name: _bowl(model) for name in MODES}),
            _levels(), seed=0)
        assert status == "failed"
        assert any("convergence to the lock" in f for f in data["findings"])

    def test_no_initial_states_no_findings(self, problem, model):
        certificates = _rising_certificates(model)
        assert run_falsification(model, _invariant(model), certificates,
                                 initial_states=[]) == []
        assert check_certificate_decrease_along_trajectories(
            model, certificates, initial_states=[]) == []
