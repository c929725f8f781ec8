"""Isolation tests for :class:`repro.sdp.SolveContext`.

The acceptance property of the context object: two verifiers in one
process — each with its own context and cache, distinct Gram-cone
relaxations — verify Van der Pol *concurrently* through a thread pool and
produce counters, cache stats and reports identical to their serial runs,
with zero cross-context counter or cache leakage.  Plus: thread-safe
counter increments, option handling of :class:`InevitabilityVerifier` and
the validation of solver settings.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import InevitabilityVerifier
from repro.engine import CertificateCache
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.scenarios import build_problem
from repro.sdp import SolveContext, default_context
from repro.sos import SOSProgram


def _cached_context(root, name):
    return SolveContext(cache=CertificateCache(root), name=name)


def _tiny_solve(context, offset=1.0):
    """Solve a one-constraint SOS feasibility program under ``context``."""
    variables = VariableVector(make_variables("x", "y"))
    x = Polynomial.from_variable(variables[0], variables)
    y = Polynomial.from_variable(variables[1], variables)
    program = SOSProgram("tiny", context=context)
    program.add_sos_constraint(x * x + 2.0 * y * y + offset, name="c")
    return program.solve()


def _canonical(report):
    """Report payload with wall-clock (never bit-stable) zeroed out."""
    payload = report.to_json_dict()
    for entry in payload["timings"]:
        entry["seconds"] = 0.0
    payload["total_seconds"] = 0.0
    return payload


class TestContextIsolation:
    def test_counters_do_not_leak_between_contexts(self, tmp_path):
        before = default_context().solve_counters()
        a = _cached_context(tmp_path / "a", "A")
        b = _cached_context(tmp_path / "b", "B")
        assert _tiny_solve(a).is_success
        assert a.solve_counters()["solved"] == 1
        assert b.solve_counters()["solved"] == 0
        assert a.compile_counters()["full"] == 1
        assert b.compile_counters()["full"] == 0
        # The process-default context never observed the context's work.
        assert default_context().solve_counters() == before

    def test_contexts_do_not_share_cache_entries(self, tmp_path):
        a = _cached_context(tmp_path / "a", "A")
        b = _cached_context(tmp_path / "b", "B")
        _tiny_solve(a)
        # The same program under B's distinct cache must really solve.
        _tiny_solve(b)
        assert b.solve_counters() == {"solved": 1, "cache_hit": 0,
                                      "solved:psd": 1}
        # ... while a replay under A's own cache is a pure hit.
        _tiny_solve(a)
        assert a.solve_counters()["cache_hit"] == 1

    def test_counter_updates_are_thread_safe(self):
        context = SolveContext(name="hammer")
        threads, per_thread = 8, 2000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                context.record_solve_event("solved", layout_kind="psd")
                context.record_compile_event("full")

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda _: hammer(), range(threads)))
        assert context.solve_counters()["solved"] == threads * per_thread
        assert context.solve_counters()["solved:psd"] == threads * per_thread
        assert context.compile_counters()["full"] == threads * per_thread

    def test_per_call_context_override_governs_compile_too(self):
        """solve(context=...) on a context-less program must count the compile
        it triggers on the overriding context, not the process default."""
        context = SolveContext(name="override")
        variables = VariableVector(make_variables("x", "y"))
        x = Polynomial.from_variable(variables[0], variables)
        y = Polynomial.from_variable(variables[1], variables)
        program = SOSProgram("no_context")       # deliberately context-less
        program.add_sos_constraint(x * x + 3.0 * y * y + 1.0, name="c")
        before = default_context().compile_counters()
        assert program.solve(context=context).is_success
        assert context.compile_counters()["full"] == 1
        assert context.solve_counters()["solved"] == 1
        assert default_context().compile_counters() == before

    def test_certificate_cache_concurrent_eviction_safe(self, tmp_path):
        """A shared cache with a tiny memory front must survive concurrent
        get/put churn (eviction used to race and KeyError)."""
        import numpy as np

        from repro.sdp import SolverResult, SolverStatus

        cache = CertificateCache(tmp_path / "shared", memory_entries=4)
        result = SolverResult(status=SolverStatus.OPTIMAL,
                              x=np.zeros(3), objective=0.0, iterations=1)
        keys = [f"{i:064x}" for i in range(64)]

        def churn(offset):
            for i in range(200):
                key = keys[(offset + i) % len(keys)]
                cache.put(key, result)
                assert cache.get(key) is not None

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(churn, range(8)))
        assert cache.stats.writes == 8 * 200
        assert cache.stats.hits == 8 * 200

    def test_cache_dir_tilde_expanded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        assert CertificateCache("~/my-cache").root == tmp_path / "my-cache"


class TestVerifierOptions:
    def test_verifier_honours_explicit_options(self, tmp_path):
        options = build_problem("vanderpol").options
        options.advection.time_step = 0.123      # marker echoed in the summary
        context = _cached_context(tmp_path / "opts", "opts")
        report = InevitabilityVerifier(build_problem("vanderpol"), options,
                                       context=context).verify()
        assert report.options_summary["advection_step"] == 0.123
        assert report.property_one.status.value == "verified"
        # The caller's object stays reusable: the pipeline's scenario-specific
        # defaults (domain box) must not leak back into it.
        assert options.lyapunov.domain_boxes is None

    def test_reused_options_keep_each_problem_domain_box(self):
        options = build_problem("vanderpol").options
        InevitabilityVerifier(build_problem("vanderpol"), options)
        duffing = InevitabilityVerifier(build_problem("duffing"), options)
        assert duffing.options.lyapunov.domain_boxes == [(-1.2, 1.2)] * 2
        assert options.lyapunov.domain_boxes is None


class TestSolverSettings:
    def test_unknown_solver_setting_still_raises(self):
        from repro.sdp import ConicProblemBuilder, solve_conic_problem

        builder = ConicProblemBuilder()
        nn_id, _ = builder.add_nonneg_block(1)
        builder.add_equality_row({(nn_id, 0): 1.0}, rhs=1.0)
        with pytest.raises(TypeError, match="max_iters"):
            # typo: the real knob is max_iterations
            solve_conic_problem(builder.build(), max_iters=5)


class TestConcurrentVerifiersVanDerPol:
    """Two verifiers, distinct caches and relaxations, concurrent == serial."""

    RELAXATIONS = ("sos", "chordal")

    def _run(self, tmp_path, tag, relaxation):
        context = _cached_context(tmp_path / f"cache-{tag}-{relaxation}",
                                  f"{tag}-{relaxation}")
        problem = build_problem("vanderpol", relaxation=relaxation)
        report = InevitabilityVerifier(problem, context=context).verify()
        return {
            "counters": context.solve_counters(),
            "compile": context.compile_counters(),
            "cache": context.cache.stats.as_dict(),
            "report": _canonical(report),
        }

    @pytest.fixture(scope="class")
    def serial_runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serial")
        return {relaxation: self._run(root, "serial", relaxation)
                for relaxation in self.RELAXATIONS}

    def test_serial_baselines_verified(self, serial_runs):
        for relaxation, run in serial_runs.items():
            assert run["report"]["property_one"]["status"] == "verified", relaxation
            assert run["counters"]["solved"] > 0
            assert run["counters"]["cache_hit"] == 0
        # The two relaxations genuinely solved in different cones.
        assert serial_runs["sos"]["counters"]["solved:psd"] > 0
        assert "solved:psd" not in serial_runs["chordal"]["counters"]
        assert serial_runs["chordal"]["counters"]["solved:chordal"] > 0

    def test_concurrent_verifiers_match_serial_exactly(self, serial_runs,
                                                       tmp_path):
        with ThreadPoolExecutor(max_workers=len(self.RELAXATIONS)) as pool:
            futures = {
                relaxation: pool.submit(self._run, tmp_path, "conc", relaxation)
                for relaxation in self.RELAXATIONS
            }
            concurrent = {relaxation: future.result()
                          for relaxation, future in futures.items()}
        for relaxation in self.RELAXATIONS:
            serial, conc = serial_runs[relaxation], concurrent[relaxation]
            # Zero leakage: solve/compile counters and cache hit/miss/write
            # stats match the serial run exactly.
            assert conc["counters"] == serial["counters"], relaxation
            assert conc["compile"] == serial["compile"], relaxation
            assert conc["cache"] == serial["cache"], relaxation
            # Bit-identical reports (modulo wall-clock).
            assert json.dumps(conc["report"], sort_keys=True) == \
                json.dumps(serial["report"], sort_keys=True), relaxation

    def test_default_context_untouched_by_verifiers(self, tmp_path):
        # A whole verify() under its own context must not record anything on
        # the process-default context (other modules do solve through it, so
        # compare against a snapshot taken just before).
        before = default_context().solve_counters()
        run = self._run(tmp_path, "isolated", "chordal")
        assert run["counters"]["solved"] > 0
        assert default_context().solve_counters() == before
