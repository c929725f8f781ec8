"""Relaxation threading through the pipeline layers: stage options, engine
jobs/reports, the certificate cache and the CLI, exercised with the
``chordal`` relaxation against the default ``sos``.

Everything here sticks to cheap workloads (vanderpol, hand-built
quadratics) so the module stays fast.
"""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.core import (
    InevitabilityOptions,
    LevelSetMaximizer,
    LevelSetOptions,
    MultipleLyapunovSynthesizer,
)
from repro.engine import EngineOptions, VerificationEngine
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.scenarios import build_problem
from repro.scenarios.registry import register_scenario
from repro.sos import SemialgebraicSet, SOSProgram

#: Relaxation names that must be rejected: unknown ones and the removed
#: DSOS/SDSOS cones and ``auto`` ladder.
REJECTED = ("soc", "dsos", "sdsos", "auto")
NAMES_ACCEPTED = r"\('sos', 'chordal'\)"


def _variables(*names):
    return VariableVector(make_variables(*names))


class TestOptionsPropagation:
    def test_apply_relaxation_reaches_stages(self):
        options = InevitabilityOptions()
        assert options.lyapunov.relaxation == "sos"
        options.apply_relaxation("chordal")
        assert options.relaxation == "chordal"
        assert options.lyapunov.relaxation == "chordal"
        assert options.levelset.relaxation == "chordal"
        assert options.advection.relaxation == "chordal"
        assert options.escape.relaxation == "chordal"

    def test_constructor_relaxation_propagates(self):
        options = InevitabilityOptions(relaxation="chordal")
        assert options.lyapunov.relaxation == "chordal"
        assert options.levelset.relaxation == "chordal"
        assert options.advection.relaxation == "chordal"
        assert options.escape.relaxation == "chordal"

    def test_unknown_relaxation_rejected(self):
        variables = _variables("x")
        x = Polynomial.from_variable(variables[0], variables)
        for name in REJECTED:
            with pytest.raises(ValueError, match=NAMES_ACCEPTED):
                InevitabilityOptions().apply_relaxation(name)
            with pytest.raises(ValueError, match=NAMES_ACCEPTED):
                InevitabilityOptions(relaxation=name)
            with pytest.raises(ValueError, match=NAMES_ACCEPTED):
                build_problem("vanderpol", relaxation=name)
            with pytest.raises(ValueError, match=NAMES_ACCEPTED):
                register_scenario(name=f"rejected_{name}", description="x",
                                  relaxation=name)(lambda spec: None)
            with pytest.raises(ValueError, match=NAMES_ACCEPTED):
                SOSProgram(default_cone=name)
            with pytest.raises(ValueError, match=NAMES_ACCEPTED):
                SOSProgram().add_sos_constraint(x * x, cone=name)


class TestLevelSetRelaxation:
    def _setup(self):
        variables = _variables("x", "y")
        x = Polynomial.from_variable(variables[0], variables)
        y = Polynomial.from_variable(variables[1], variables)
        certificate = x * x + y * y
        domain = SemialgebraicSet(variables).with_box([(-1.0, 1.0), (-1.0, 1.0)])
        return certificate, domain

    @pytest.mark.parametrize("relaxation", ["chordal", "sos"])
    def test_each_rung_certifies_the_disc(self, relaxation):
        certificate, domain = self._setup()
        maximizer = LevelSetMaximizer(LevelSetOptions(
            bisection_tolerance=0.05, max_bisection_iterations=10,
            initial_upper_bound=0.5, relaxation=relaxation,
            solver_settings=dict(max_iterations=4000)))
        result = maximizer.maximize("m", certificate, domain,
                                    bounds=[(-1, 1), (-1, 1)])
        assert result.relaxation == relaxation
        assert 0.0 < result.level <= 1.0 + 1e-6

    def test_serial_strategy_also_threads_the_cone(self):
        certificate, domain = self._setup()
        maximizer = LevelSetMaximizer(LevelSetOptions(
            bisection_tolerance=0.05, max_bisection_iterations=8,
            initial_upper_bound=0.5, strategy="serial", relaxation="chordal",
            solver_settings=dict(max_iterations=4000)))
        result = maximizer.maximize("m", certificate, domain,
                                    bounds=[(-1, 1), (-1, 1)])
        assert result.relaxation == "chordal"
        assert result.level > 0.0


class TestLyapunovRelaxation:
    def test_vanderpol_certificates_under_chordal(self):
        problem = build_problem("vanderpol")
        problem.options.lyapunov.domain_boxes = problem.state_bounds()
        problem.options.apply_relaxation("chordal")
        synthesizer = MultipleLyapunovSynthesizer(
            problem.system, options=problem.options.lyapunov)
        result = synthesizer.synthesize()
        assert result.feasible
        assert result.relaxation == "chordal"
        certs = result.solution.certificates
        assert certs
        for cert in certs.values():
            assert cert.cone == "chordal"
            assert cert.structure_margin is not None


@pytest.fixture(scope="module")
def relax_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("relax_cache"))


@pytest.fixture(scope="module")
def vanderpol_chordal_cold(relax_cache):
    engine = VerificationEngine(EngineOptions(jobs=1, cache_dir=relax_cache,
                                              relaxation="chordal"))
    return engine.run(["vanderpol"])


class TestEngineRelaxation:
    def test_cold_run_records_relaxation_per_job(self, vanderpol_chordal_cold):
        outcome = vanderpol_chordal_cold.outcome("vanderpol")
        assert outcome.matches_expected
        by_step = {job.step: job for job in outcome.jobs}
        assert by_step["lyapunov"].relaxation == "chordal"
        assert by_step["levelset"].relaxation == "chordal"
        payload = vanderpol_chordal_cold.to_json_dict()
        assert payload["engine"]["relaxation"] == "chordal"
        job_rows = payload["scenarios"][0]["jobs"]
        assert any(row["relaxation"] == "chordal" for row in job_rows)
        timing_rows = payload["scenarios"][0]["report"]["timings"]
        assert any(row.get("relaxation") == "chordal" for row in timing_rows)
        # The keyed counters expose which cone actually solved.
        assert vanderpol_chordal_cold.counters.get("solved:chordal", 0) > 0
        assert vanderpol_chordal_cold.counters.get("solved:psd", 0) == 0

    def test_warm_cache_zero_solves_same_relaxation(self, relax_cache,
                                                    vanderpol_chordal_cold):
        warm = VerificationEngine(EngineOptions(
            jobs=1, cache_dir=relax_cache, relaxation="chordal")).run(["vanderpol"])
        assert warm.counters["solved"] == 0
        assert warm.counters["cache_hit"] > 0
        assert warm.outcome("vanderpol").statuses == \
            vanderpol_chordal_cold.outcome("vanderpol").statuses

    def test_distinct_relaxations_never_share_cache_entries(self, relax_cache,
                                                            vanderpol_chordal_cold):
        """A warm chordal cache must not serve the sos pipeline."""
        sos_run = VerificationEngine(EngineOptions(
            jobs=1, cache_dir=relax_cache, relaxation="sos")).run(["vanderpol"])
        assert sos_run.counters["solved"] > 0
        assert sos_run.counters.get("solved:psd", 0) > 0
        assert sos_run.counters.get("cache_hit:chordal", 0) == 0


class TestScenarioSpecRelaxation:
    def test_registered_default_is_sos(self):
        from repro.scenarios import get_scenario
        spec = get_scenario("vanderpol")
        assert spec.relaxation == "sos"
        assert spec.summary_row()["relaxation"] == "sos"

    def test_register_scenario_validates_relaxation(self):
        with pytest.raises(ValueError):
            register_scenario(name="bad_relax_scenario", description="x",
                              relaxation="qp")(lambda spec: None)

    def test_spec_relaxation_propagates_into_problem(self):
        from repro.scenarios import get_scenario
        import dataclasses

        spec = dataclasses.replace(get_scenario("vanderpol"),
                                   relaxation="chordal")
        problem = spec.build()
        assert problem.options.relaxation == "chordal"
        assert problem.options.lyapunov.relaxation == "chordal"


class TestCLIRelaxation:
    def test_list_json_includes_relaxation(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all("relaxation" in row for row in payload["scenarios"])

    def test_verify_relaxation_flag(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        code = cli_main([
            "verify", "vanderpol", "--relaxation", "chordal",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(json_path),
        ])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["engine"]["relaxation"] == "chordal"
        jobs = payload["scenarios"][0]["jobs"]
        assert any(job["relaxation"] == "chordal" for job in jobs)

    def test_verify_rejects_unknown_relaxation(self, tmp_path, capsys):
        for name in ("qp",) + REJECTED:
            with pytest.raises(SystemExit) as exc:
                cli_main(["verify", "vanderpol", "--relaxation", name,
                          "--cache-dir", str(tmp_path / "cache")])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
