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
from repro.analysis.falsification import _step_count
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
        for x0, trajectory in zip(states, batch):
            reference = _scalar_reference(model, x0, 40.0, 1e-3)
            np.testing.assert_allclose(trajectory, reference, rtol=0, atol=1e-9)

    def test_single_state_keeps_its_shape(self, model, states):
        single = simulate_relay_abstraction(model, states[0], duration=2.0)
        batch = simulate_relay_abstraction(model, states, duration=2.0)
        assert single.shape == (2001, 3)
        np.testing.assert_allclose(single, batch[0], rtol=0, atol=1e-12)

    def test_prefix_of_a_longer_run_is_the_shorter_run(self, model, states):
        long = simulate_relay_abstraction(model, states, duration=40.0)
        short = simulate_relay_abstraction(model, states, duration=20.0)
        assert np.array_equal(long[:, :short.shape[1]], short)


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
