"""Certificate-cache tests: hit/miss/corruption recovery, key stability
across processes, and cache bypass."""

import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.engine import CertificateCache
from repro.engine.cache import default_cache_dir
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.sdp import (
    ConicProblemBuilder,
    SolveContext,
    SolverResult,
    SolverStatus,
    canonical_solver_options,
    solve_cache_key,
)
from repro.sos import SOSProgram


@pytest.fixture()
def cache(tmp_path):
    return CertificateCache(tmp_path / "cache")


@pytest.fixture()
def tiny_program():
    variables = VariableVector(make_variables("x", "y"))
    x = Polynomial.from_variable(variables[0], variables)
    y = Polynomial.from_variable(variables[1], variables)
    program = SOSProgram("cache_test")
    program.add_sos_constraint(x * x + 2.0 * y * y + 1.0, name="c")
    return program


def _result(objective=1.25):
    return SolverResult(status=SolverStatus.OPTIMAL,
                        x=np.array([1.0, 2.0, 3.0]),
                        objective=objective, iterations=7)


def _rebuild(program):
    builder, _, _ = program.compile()
    return builder.build()


class TestCacheStore:
    def test_put_get_roundtrip(self, cache):
        key = "ab" * 32
        cache.put(key, _result())
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.status is SolverStatus.OPTIMAL
        assert np.allclose(loaded.x, [1.0, 2.0, 3.0])
        assert cache.stats.writes == 1 and cache.stats.hits == 1

    def test_miss(self, cache):
        assert cache.get("cd" * 32) is None
        assert cache.stats.misses == 1

    def test_len_and_clear(self, cache):
        for i in range(3):
            cache.put(f"{i:02x}" * 32, _result())
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_corrupted_entry_recovered(self, cache):
        key = "ef" * 32
        cache.put(key, _result())
        path = cache.path_for(key)
        path.write_bytes(b"not a pickle")
        fresh = CertificateCache(cache.root)  # bypass the in-memory front
        assert fresh.get(key) is None
        assert fresh.stats.corrupted == 1
        assert not path.exists()          # the bad entry was dropped
        # A subsequent put repopulates it.
        fresh.put(key, _result())
        assert fresh.get(key) is not None

    def test_wrong_type_entry_treated_as_corrupt(self, cache):
        key = "0a" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get(key) is None
        assert cache.stats.corrupted == 1

    def test_invalid_key_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.path_for("../escape")

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestCacheKeys:
    def test_fingerprint_deterministic_within_process(self, tiny_program):
        variables = VariableVector(make_variables("x", "y"))
        x = Polynomial.from_variable(variables[0], variables)
        y = Polynomial.from_variable(variables[1], variables)
        other = SOSProgram("cache_test_again")
        other.add_sos_constraint(x * x + 2.0 * y * y + 1.0, name="c")
        assert _rebuild(tiny_program).fingerprint() == _rebuild(other).fingerprint()

    def test_fingerprint_sensitive_to_data(self):
        variables = VariableVector(make_variables("x", "y"))
        x = Polynomial.from_variable(variables[0], variables)
        y = Polynomial.from_variable(variables[1], variables)
        a = SOSProgram("a")
        a.add_sos_constraint(x * x + 2.0 * y * y + 1.0, name="c")
        b = SOSProgram("b")
        b.add_sos_constraint(x * x + 2.5 * y * y + 1.0, name="c")
        assert _rebuild(a).fingerprint() != _rebuild(b).fingerprint()

    def test_key_includes_solver_options(self, tiny_program):
        problem = _rebuild(tiny_program)
        k1 = solve_cache_key(problem, {})
        k2 = solve_cache_key(problem, {"max_iterations": 123})
        k3 = solve_cache_key(problem, {"max_iterations": 123, "rho": 2.0})
        assert len({k1, k2, k3}) == 3

    def test_canonical_options_sorted(self):
        a = canonical_solver_options({"b": 1, "a": 2})
        b = canonical_solver_options({"a": 2, "b": 1})
        assert a == b

    def test_key_pinned_to_existing_caches(self):
        """Keys written by earlier versions still hit: the digest is fixed."""
        builder = ConicProblemBuilder()
        psd_id, _ = builder.add_psd_block(2)
        nn_id, _ = builder.add_nonneg_block(1)
        local, coeff = builder.psd_entry_local_index(psd_id, 0, 1)
        builder.add_equality_row({(psd_id, local): coeff, (nn_id, 0): 1.0},
                                 rhs=0.5)
        settings = {"max_iterations": 3000, "eps_rel": 1e-4, "rho": 2.0}
        assert canonical_solver_options(settings) == \
            "admm|eps_rel=0.0001, max_iterations=3000, rho=2.0"
        assert solve_cache_key(builder.build(), settings) == (
            "2ce98cdd8294b3d6884fbcb8d0d8c9fb803effab6984b45701f3f2324e8f78c3")

    def test_key_stable_across_processes(self, tiny_program):
        """The content hash must not depend on Python hash randomisation."""
        local = _rebuild(tiny_program).fingerprint()
        script = (
            "from repro.polynomial import Polynomial, VariableVector, make_variables\n"
            "from repro.sos import SOSProgram\n"
            "v = VariableVector(make_variables('x', 'y'))\n"
            "x = Polynomial.from_variable(v[0], v)\n"
            "y = Polynomial.from_variable(v[1], v)\n"
            "p = SOSProgram('cache_test')\n"
            "p.add_sos_constraint(x * x + 2.0 * y * y + 1.0, name='c')\n"
            "builder, _, _ = p.compile()\n"
            "print(builder.build().fingerprint())\n"
        )
        for seed in ("0", "1"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed,
                     "PATH": "/usr/bin:/bin"},
                cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
            )
            assert out.stdout.strip() == local


class TestSolveCacheIntegration:
    def test_hit_miss_and_bypass(self, cache, tiny_program):
        context = SolveContext(cache=cache)
        tiny_program.solve(context=context)
        counters = context.solve_counters()
        assert counters["solved"] == 1 and counters["cache_hit"] == 0
        # Solve counters are additionally keyed by cone-layout kind.
        assert counters["solved:psd"] == 1

        # A structurally identical program is served from the cache.
        variables = VariableVector(make_variables("x", "y"))
        x = Polynomial.from_variable(variables[0], variables)
        y = Polynomial.from_variable(variables[1], variables)
        clone = SOSProgram("clone", context=context)
        clone.add_sos_constraint(x * x + 2.0 * y * y + 1.0, name="c")
        solution = clone.solve()
        assert solution.is_success
        counters = context.solve_counters()
        assert counters["solved"] == 1 and counters["cache_hit"] == 1
        assert counters["cache_hit:psd"] == 1

        # A context without a cache solves again.
        bypass = SolveContext()
        clone2 = SOSProgram("clone2", context=bypass)
        clone2.add_sos_constraint(x * x + 2.0 * y * y + 1.0, name="c")
        clone2.solve()
        assert bypass.solve_counters()["solved"] == 1
        assert bypass.solve_counters()["cache_hit"] == 0

    def test_cached_result_reused_across_cache_instances(self, tmp_path,
                                                         tiny_program):
        """Key stability on disk: a fresh cache object over the same directory
        serves the results written by another instance (as worker processes
        sharing one cache directory do)."""
        writer = SolveContext(cache=CertificateCache(tmp_path / "shared"))
        tiny_program.solve(context=writer)
        assert writer.solve_counters()["solved"] == 1
        reader = SolveContext(cache=CertificateCache(tmp_path / "shared"))
        variables = VariableVector(make_variables("x", "y"))
        x = Polynomial.from_variable(variables[0], variables)
        y = Polynomial.from_variable(variables[1], variables)
        clone = SOSProgram("clone", context=reader)
        clone.add_sos_constraint(x * x + 2.0 * y * y + 1.0, name="c")
        clone.solve()
        counters = reader.solve_counters()
        assert counters["solved"] == 0 and counters["cache_hit"] == 1
