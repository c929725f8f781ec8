"""Verification-engine orchestration tests (DAG, statuses, reports) plus the
report-rendering and falsification-reproducibility satellites."""

import json
import time

import numpy as np
import pytest

from repro.analysis import random_initial_states, run_falsification
from repro.core import (
    PropertyOneResult,
    PropertyTwoResult,
    STEP_ATTRACTIVE_INVARIANT,
    VerificationReport,
    VerificationStatus,
)
from repro.core.inevitability import InevitabilityOptions, InevitabilityVerifier
from repro.core.levelset import MaximizedLevelSet
from repro.core.attractive import AttractiveInvariant
from repro.engine import (
    CertificateCache,
    EngineOptions,
    JobStatus,
    VerificationEngine,
    polynomial_from_data,
    polynomial_to_data,
)
from repro.engine import engine as engine_module
from repro.engine.engine import (
    _JobDriver,
    _ScenarioDriver,
    _prepared_problem,
    _run_jobs,
)
from repro.engine.jobs import JobSpec
from repro.polynomial import Polynomial
from repro.scenarios import ScenarioProblem, build_problem, register_scenario
from repro.scenarios.registry import _REGISTRY
from repro.hybrid import HybridSystem, Mode
from repro.polynomial import VariableVector, make_variables
from repro.sdp import SolveContext
from repro.sos import SemialgebraicSet


class TestPlanning:
    def test_pll3_dag(self):
        engine = VerificationEngine(EngineOptions())
        plan = {spec.job_id: spec for spec in engine.plan("pll3")}
        assert "pll3/lyapunov" in plan
        for mode in ("mode1", "mode2", "mode3"):
            spec = plan[f"pll3/levelset:{mode}"]
            assert spec.depends_on == ("pll3/lyapunov",)
        for mode in ("mode2", "mode3"):
            spec = plan[f"pll3/advection:{mode}"]
            assert set(spec.depends_on) == {f"pll3/levelset:{m}"
                                            for m in ("mode1", "mode2", "mode3")}
        assert "pll3/advection:mode1" not in plan  # idle mode is not advected
        assert "pll3/falsification" in plan

    def test_property_two_disabled_drops_advection(self):
        plan = [spec.job_id for spec in
                VerificationEngine(EngineOptions()).plan("vanderpol")]
        assert plan == ["vanderpol/lyapunov", "vanderpol/levelset:flow"]


@pytest.fixture()
def unstable_scenario():
    """A registered scenario whose Lyapunov synthesis must fail (x' = x)."""
    name = "_test_unstable"
    variables = VariableVector(make_variables("x"))
    x = Polynomial.from_variable(variables[0], variables)
    mode = Mode(name="flow", index=1, state_variables=variables,
                flow_map=(x,),
                flow_set=SemialgebraicSet(variables, name="all"),
                contains_equilibrium=True)
    system = HybridSystem(name="unstable", state_variables=variables,
                          modes=(mode,), equilibrium=np.zeros(1))

    @register_scenario(name, "unstable test system", expected="inconclusive")
    def _build(spec):
        options = InevitabilityOptions()
        options.verify_property_two = False
        options.lyapunov.validate_samples = 200
        options.lyapunov.lock_tube_radius = 0.0
        options.lyapunov.solver_settings = dict(max_iterations=1500)
        return ScenarioProblem(system=system, bounds=[(-1.0, 1.0)],
                               options=options)

    yield name
    _REGISTRY.pop(name, None)


class TestExecution:
    def test_failed_dependency_skips_downstream(self, unstable_scenario, tmp_path):
        engine = VerificationEngine(EngineOptions(jobs=1, cache_dir=str(tmp_path)))
        report = engine.run([unstable_scenario])
        outcome = report.outcomes[0]
        statuses = outcome.statuses
        assert statuses[f"{unstable_scenario}/lyapunov"] == "failed"
        assert statuses[f"{unstable_scenario}/levelset:flow"] == "skipped"
        assert outcome.report.property_one.status is VerificationStatus.INCONCLUSIVE
        assert outcome.matches_expected  # the scenario promises inconclusive

    def test_engine_report_is_json_serialisable(self, unstable_scenario, tmp_path):
        engine = VerificationEngine(EngineOptions(jobs=1, cache_dir=str(tmp_path)))
        report = engine.run([unstable_scenario])
        payload = json.dumps(report.to_json_dict())
        assert unstable_scenario in payload
        # Cache accounting reaches the aggregated report.
        assert report.cache_stats.get("writes", 0) > 0

    def test_timeout_marks_job_and_skips_dependents(self):
        problem = _prepared_problem("vanderpol")
        driver = _ScenarioDriver("vanderpol", problem,
                                 EngineOptions(job_timeout=0.5))
        ready = driver.take_ready()
        assert [spec.job_id for spec, _ in ready] == ["vanderpol/lyapunov"]
        driver.record_timeout(ready[0][0], seconds=0.6)
        assert driver.results["vanderpol/lyapunov"].status is JobStatus.TIMEOUT
        # The dependent level-set job resolves as skipped, completing the DAG.
        assert driver.take_ready() == []
        assert driver.done
        assert driver.results["vanderpol/levelset:flow"].status is JobStatus.SKIPPED


class _SleepDriver(_JobDriver):
    """Two independent jobs whose payload is a sleep length in seconds."""

    def __init__(self):
        super().__init__([JobSpec(job_id=f"nap/{index}", scenario="nap",
                                  step="sleep") for index in range(2)])

    def _payload_for(self, spec):
        return 30.0


class TestJobLoop:
    def test_interrupt_settles_pool_jobs_and_reaps_workers(self, monkeypatch):
        """Ctrl-C while pool jobs run: each is settled as interrupted and
        every worker is terminated instead of being joined at exit."""
        workers = []

        def interrupted_wait(futures, timeout, return_when):
            deadline = time.monotonic() + 10.0
            while not all(future.running() for future in futures) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(engine_module, "wait", interrupted_wait)
        real_pool = engine_module.ProcessPoolExecutor

        class RecordingPool(real_pool):
            def submit(self, fn, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                workers[:] = list(self._processes.values())
                return future

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", RecordingPool)
        driver = _SleepDriver()
        _run_jobs([driver], 2, time.sleep)

        assert driver.done
        assert {result.status for result in driver.results.values()} == \
            {JobStatus.ERROR}
        assert {result.detail for result in driver.results.values()} == \
            {"interrupted (Ctrl-C)"}
        assert workers
        for process in workers:
            process.join(timeout=10.0)
            assert not process.is_alive()


class TestInProcessVerifier:
    @pytest.mark.parametrize("scenario", ["vanderpol", "buck"])
    def test_verifier_replays_engine_run_with_identical_report(self, scenario,
                                                               tmp_path):
        """``InevitabilityVerifier.verify()`` runs the engine's job DAG: on the
        engine's warm cache it solves nothing and reports the same JSON."""
        cache_dir = str(tmp_path)
        engine_run = VerificationEngine(
            EngineOptions(jobs=1, cache_dir=cache_dir)).run([scenario])
        context = SolveContext(cache=CertificateCache(cache_dir))
        report = InevitabilityVerifier(build_problem(scenario),
                                       context=context).verify()
        assert context.solve_counters().get("solved", 0) == 0

        def without_seconds(payload):
            payload.pop("total_seconds")
            for entry in payload["timings"]:
                entry.pop("seconds")
            return payload

        engine_json = without_seconds(
            engine_run.outcome(scenario).report.to_json_dict())
        assert without_seconds(report.to_json_dict()) == engine_json


class TestSerialization:
    def test_polynomial_roundtrip_is_exact(self):
        variables = VariableVector(make_variables("x", "y", "z"))
        x = Polynomial.from_variable(variables[0], variables)
        y = Polynomial.from_variable(variables[1], variables)
        z = Polynomial.from_variable(variables[2], variables)
        poly = 1.5 * x ** 4 - 2.25 * x * y * z + z * z - 0.125
        data = polynomial_to_data(poly)
        json.dumps(data)  # plain data
        back = polynomial_from_data(data)
        assert (poly - back).max_abs_coefficient() == 0.0

    def test_term_order_deterministic(self):
        variables = VariableVector(make_variables("x", "y"))
        x = Polynomial.from_variable(variables[0], variables)
        y = Polynomial.from_variable(variables[1], variables)
        a = polynomial_to_data(x * y + y * y + x)
        b = polynomial_to_data(y * y + x + x * y)
        assert a == b


class TestReportSatellite:
    def _empty_report(self):
        return VerificationReport(
            system_name="sys",
            property_one=PropertyOneResult(
                status=VerificationStatus.INCONCLUSIVE),
            property_two=PropertyTwoResult(
                status=VerificationStatus.INCONCLUSIVE),
        )

    def test_zero_timings_render_cleanly(self):
        report = self._empty_report()
        text = report.render_text()
        assert "no steps executed" in text
        assert report.table2_rows() == []
        assert report.total_time == 0.0

    def test_non_canonical_steps_ordered_deterministically(self):
        report = self._empty_report()
        report.add_timing("Zeta Custom", 1.0)
        report.add_timing("Alpha Custom", 2.0)
        report.add_timing(STEP_ATTRACTIVE_INVARIANT, 3.0)
        steps = [step for step, _, _, _ in report.table2_rows()]
        # Canonical first, then extras alphabetically — insertion order must
        # not leak through.
        assert steps == [STEP_ATTRACTIVE_INVARIANT, "Alpha Custom", "Zeta Custom"]
        text = report.render_text()
        assert text.index("Alpha Custom") < text.index("Zeta Custom")

    def test_to_json_dict(self):
        report = self._empty_report()
        report.add_timing(STEP_ATTRACTIVE_INVARIANT, 1.5, detail="degree 2")
        payload = report.to_json_dict()
        json.dumps(payload)
        assert payload["inevitability"] == "inconclusive"
        assert payload["timings"][0]["step"] == STEP_ATTRACTIVE_INVARIANT


class TestFalsificationReproducibility:
    @pytest.fixture(scope="class")
    def model(self):
        return build_problem("pll3").pll_model

    def test_rng_threading(self, model):
        a = random_initial_states(model, 4, rng=np.random.default_rng(42))
        b = random_initial_states(model, 4, rng=np.random.default_rng(42))
        c = random_initial_states(model, 4, rng=np.random.default_rng(43))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_parameter_still_works(self, model):
        a = random_initial_states(model, 3, seed=7)
        b = random_initial_states(model, 3, seed=7)
        assert np.array_equal(a, b)

    def test_run_falsification_deterministic(self, model):
        variables = model.state_variables
        V = Polynomial.zero(variables)
        for v in variables:
            xi = Polynomial.from_variable(v, variables)
            V = V + xi * xi
        invariant = AttractiveInvariant(
            {"mode1": MaximizedLevelSet("mode1", V, 4.0, iterations=0)},
            variables)
        kwargs = dict(count=2, duration=2.0, lock_radius=5.0)
        first = run_falsification(model, invariant,
                                  rng=np.random.default_rng(5), **kwargs)
        second = run_falsification(model, invariant,
                                   rng=np.random.default_rng(5), **kwargs)
        assert [str(f) for f in first] == [str(f) for f in second]
