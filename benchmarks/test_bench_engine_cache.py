"""Engine benchmark: cold vs warm certificate cache on a fast scenario.

Demonstrates (and asserts) the cache contract: the second run of an
unchanged scenario performs zero conic solves and is substantially faster.
"""

import time

import pytest

from repro.engine import EngineOptions, VerificationEngine

from benchutil import print_rows


@pytest.mark.benchmark(group="engine-cache")
def test_bench_engine_warm_cache(benchmark, tmp_path):
    cache_dir = str(tmp_path / "cache")
    scenario = "vanderpol"

    cold_start = time.perf_counter()
    cold = VerificationEngine(
        EngineOptions(jobs=1, cache_dir=cache_dir)).run([scenario])
    cold_seconds = time.perf_counter() - cold_start

    def warm_run():
        return VerificationEngine(
            EngineOptions(jobs=1, cache_dir=cache_dir)).run([scenario])

    warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    warm_seconds = warm.wall_seconds

    print_rows(
        "Engine certificate cache: cold vs warm (vanderpol)",
        ["quantity", "cold", "warm"],
        [("wall seconds", f"{cold_seconds:.2f}", f"{warm_seconds:.2f}"),
         ("SDP solves", cold.counters.get("solved", 0),
          warm.counters.get("solved", 0)),
         ("cache hits", cold.counters.get("cache_hit", 0),
          warm.counters.get("cache_hit", 0))],
    )

    assert cold.counters["solved"] > 0
    assert warm.counters["solved"] == 0
    assert warm.counters["cache_hit"] == cold.counters["solved"] + \
        cold.counters["cache_hit"]
    assert warm.outcome(scenario).statuses == cold.outcome(scenario).statuses
