"""Acceptance tests on the 3rd-order PLL: engine/direct-API parity, identical
statuses across worker counts, and zero SDP solves on a warm cache.

The cold run is the session fixture ``pll3_run`` (root ``conftest.py``),
which the pll3 benches share; every later run in this module — including the
CLI subprocess — replays certificates from its cache.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import InevitabilityVerifier, VerificationStatus
from repro.engine import CertificateCache, EngineOptions, VerificationEngine
from repro.scenarios import build_problem
from repro.sdp import SolveContext
from repro.sos import compile_counters

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestPll3Acceptance:
    def test_cold_run_matches_expected(self, pll3_run):
        outcome = pll3_run.outcome
        assert outcome.matches_expected
        assert outcome.report.property_one.status is VerificationStatus.VERIFIED
        assert outcome.report.property_one.invariant is not None
        levels = dict((name, level) for name, level, _
                      in outcome.report.property_one.invariant.summary_rows())
        assert set(levels) == {"mode1", "mode2", "mode3"}
        assert all(level > 0 for level in levels.values())
        assert pll3_run.report.counters["solved"] > 0

    def test_jobs_1_and_4_produce_identical_statuses(self, pll3_run):
        pooled = VerificationEngine(
            EngineOptions(jobs=4, cache_dir=pll3_run.cache_dir)).run(["pll3"])
        cold = pll3_run.outcome
        warm = pooled.outcome("pll3")
        assert cold.statuses == warm.statuses
        assert warm.matches_expected
        cold_levels = cold.report.property_one.invariant.summary_rows()
        warm_levels = warm.report.property_one.invariant.summary_rows()
        assert cold_levels == warm_levels

    def test_warm_cache_performs_zero_sdp_solves(self, pll3_run):
        compile_before = compile_counters()
        warm = VerificationEngine(
            EngineOptions(jobs=1, cache_dir=pll3_run.cache_dir)).run(["pll3"])
        compile_after = compile_counters()
        assert warm.counters["solved"] == 0
        assert warm.counters["cache_hit"] > 0
        # The pipeline genuinely re-ran: programs were (re)compiled, only the
        # conic solves were replayed from the persistent cache.
        assert compile_after["full"] + compile_after["memoised"] > \
            compile_before["full"] + compile_before["memoised"]
        assert warm.outcome("pll3").statuses == pll3_run.outcome.statuses

    def test_no_cache_flag_bypasses_cache(self, pll3_run):
        """--no-cache semantics: a tiny scenario re-solves despite a warm dir."""
        cache_dir = pll3_run.cache_dir
        engine = VerificationEngine(
            EngineOptions(jobs=1, use_cache=False, cache_dir=cache_dir))
        # vanderpol is cheap; with use_cache=False it must perform real solves
        # even though a cache directory exists.
        VerificationEngine(EngineOptions(jobs=1, cache_dir=cache_dir)).run(
            ["vanderpol"])  # warm the cache for vanderpol
        report = engine.run(["vanderpol"])
        assert report.counters["solved"] > 0
        assert report.counters["cache_hit"] == 0

    def test_engine_matches_direct_api(self, pll3_run):
        """Engine results must equal a direct InevitabilityVerifier run."""
        problem = build_problem("pll3")
        context = SolveContext(cache=CertificateCache(pll3_run.cache_dir))
        report = InevitabilityVerifier(problem, problem.options,
                                       context=context).verify()
        # The direct run replays the same SDPs the engine solved.
        assert context.solve_counters()["solved"] == 0
        engine_report = pll3_run.outcome.report
        assert report.property_one.status is engine_report.property_one.status
        direct_levels = report.property_one.invariant.summary_rows()
        engine_levels = engine_report.property_one.invariant.summary_rows()
        assert [(name, degree) for name, _, degree in direct_levels] == \
            [(name, degree) for name, _, degree in engine_levels]
        for (_, direct_level, _), (_, engine_level, _) in zip(direct_levels,
                                                              engine_levels):
            assert direct_level == pytest.approx(engine_level, rel=1e-9)
        assert report.property_two.status is engine_report.property_two.status


class TestCli:
    def _run(self, args, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = cache_dir
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, cwd=str(REPO_ROOT), env=env)

    def test_list_shows_all_scenarios(self, tmp_path):
        out = self._run(["list", "--json"], str(tmp_path))
        assert out.returncode == 0, out.stderr
        names = [row["name"] for row in json.loads(out.stdout)["scenarios"]]
        assert len(names) >= 6
        assert "pll3" in names

    def test_verify_pll3_succeeds_and_writes_json(self, pll3_run, tmp_path):
        json_path = tmp_path / "pll3.json"
        out = self._run(["verify", "pll3", "--jobs", "1",
                         "--json", str(json_path)], pll3_run.cache_dir)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "MATCH" in out.stdout
        payload = json.loads(json_path.read_text())
        scenario = payload["scenarios"][0]
        assert scenario["scenario"] == "pll3"
        assert scenario["matches_expected"] is True
        # Warm cache: the subprocess performed no SDP solves at all.
        assert payload["engine"]["counters"]["solved"] == 0

    def test_report_renders_last_run(self, pll3_run, tmp_path):
        json_path = tmp_path / "for_report.json"
        verify = self._run(["verify", "vanderpol", "--jobs", "1",
                            "--json", str(json_path)], pll3_run.cache_dir)
        assert verify.returncode == 0
        out = self._run(["report", "--input", str(json_path)], pll3_run.cache_dir)
        assert out.returncode == 0, out.stderr
        assert "vanderpol" in out.stdout

        metrics = self._run(["report", "--input", str(json_path),
                             "--metrics"], pll3_run.cache_dir)
        assert metrics.returncode == 0, metrics.stderr
        snapshot = json.loads(metrics.stdout)
        assert "solves" in snapshot and "cache" in snapshot
        assert snapshot["cache"]["lookups"] == \
            snapshot["cache"]["hits"] + snapshot["cache"]["misses"]

        prom = self._run(["report", "--input", str(json_path),
                          "--metrics", "--prometheus"], pll3_run.cache_dir)
        assert prom.returncode == 0, prom.stderr
        assert any(line.startswith("repro_solves_total ")
                   for line in prom.stdout.splitlines())

    def test_unknown_scenario_is_a_usage_error(self, tmp_path):
        out = self._run(["verify", "definitely_not_a_scenario"], str(tmp_path))
        assert out.returncode == 2  # usage error, not a verification mismatch
        assert "unknown scenario" in out.stderr
