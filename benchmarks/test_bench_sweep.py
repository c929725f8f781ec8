"""Sweep-planner benchmark: compiles-per-family and points/sec at scale.

The sweep subsystem's performance claim is structural: certifying a family
of N parameter points costs **one** SOS compile per shard structure
— the :class:`~repro.sos.parametric.MultiParametricSOSProgram` probe family
— plus a pure array bind per point, instead of N full compiles.  This bench
drives the claim at paper scale: a 200-point charge-pump degradation ladder
(``Ip ∈ [0.2, 1.0]·nominal`` of the third-order PLL, the continuum
generalisation of the ``pll3_weak_pump`` scenario) swept end to end through
:class:`~repro.sweep.SweepRunner` with ``jobs=1`` (a single shard, so the
compile bound is exactly 1).

Recorded in ``benchmarks/BENCH_sweep.json``:

* ``parametric_compiles`` / ``binds`` / ``rebuild_compiles`` of the probe
  structure, keyed by its relaxation (asserted: ≤ 1 parametric compile, 0 rebuilds, one bind per
  sampling-passing point);
* the sampling path and model builds of the probe structure (asserted:
  ``sampling == "affine"`` and at most 3 model builds — the base, one Ip
  step and the joint probe; every point's sampling reports are an affine
  combination of the decrease values there, not a rebuild of its model);
* ``points_per_second`` over the full ladder (sampling validation included
  — degraded points are filtered before any conic work, which is exactly
  the designed fast path);
* the certified frontier edge on the Ip axis (the sweep's scientific
  output: down to which pump-current fraction the nominal certificate
  survives).

Budget note: the sweep starts from a copy of the session's cold ``pll3``
certificate cache (the ``pll3_run`` fixture), so the anchor Lyapunov
certificate is the cache entry of pll3's Lyapunov step and is replayed, not
re-synthesised; the anchor time is reported separately from the per-point
throughput.
"""

import shutil
import time

import pytest

from repro.sweep import SweepOptions, SweepRunner, get_sweep_family

from benchutil import write_bench


FAMILY = "pll3_ip_ladder"
POINTS = 200


@pytest.mark.benchmark(group="sweep")
def test_bench_sweep_degradation_ladder(benchmark, pll3_run, tmp_path):
    family = get_sweep_family(FAMILY).reconfigure(samples=POINTS)
    assert family.count() == POINTS

    cache_dir = str(tmp_path / "cache")
    shutil.copytree(pll3_run.cache_dir, cache_dir)
    runner = SweepRunner(SweepOptions(jobs=1, cache_dir=cache_dir))
    start = time.perf_counter()
    report = runner.run(family)
    wall = time.perf_counter() - start

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    run = report.run
    anchor_seconds = run["anchor"]["seconds"]
    sweep_seconds = max(wall - anchor_seconds, 1e-9)
    points_per_second = POINTS / sweep_seconds

    structures = run["structures"]
    total_parametric = sum(entry.get("parametric_compiles", 0)
                           for entry in structures.values())
    total_rebuilds = sum(entry.get("rebuild_compiles", 0)
                         for entry in structures.values())
    certified = report.certified
    ip_range = report.frontier["axes"]["i_p"]["certified_range"]
    nominal = ip_range[1] if ip_range else None
    frontier_fraction = (ip_range[0] / nominal) if ip_range else None

    print(f"\n=== {FAMILY} x {POINTS} points (jobs=1, single shard) ===")
    print(f"anchor synthesis   : {anchor_seconds:.2f}s "
          f"({run['anchor']['relaxation']})")
    print(f"sweep wall         : {sweep_seconds:.2f}s "
          f"({points_per_second:.1f} points/s)")
    print(f"certified          : {certified}/{POINTS}"
          + (f", Ip frontier at {frontier_fraction:.3f} of nominal"
             if frontier_fraction is not None else ""))
    for relaxation in sorted(structures):
        entry = structures[relaxation]
        print(f"structure[{relaxation}]     : "
              f"{entry.get('parametric_compiles', 0)} parametric compile(s), "
              f"{entry.get('binds', 0)} bind(s), "
              f"{entry.get('rebuild_compiles', 0)} rebuild(s), "
              f"sampling {entry.get('sampling')} from "
              f"{entry.get('model_builds', 0)} model build(s)")
    print(f"SDP solves         : {run['counters'].get('solved', 0)} "
          f"({run['counters'].get('cache_hit', 0)} cache hits)")

    write_bench("sweep", "bench-sweep/v1", {
        "family": FAMILY,
        "points": POINTS,
        "jobs": 1,
        "anchor_seconds": anchor_seconds,
        "sweep_seconds": sweep_seconds,
        "points_per_second": points_per_second,
        "certified_points": certified,
        "ip_frontier_fraction": frontier_fraction,
        "structures": structures,
        "compiles_per_family": total_parametric,
        "sampling": {relaxation: entry.get("sampling")
                     for relaxation, entry in structures.items()},
        "model_builds": sum(entry.get("model_builds", 0)
                            for entry in structures.values()),
        "solves": run["counters"].get("solved", 0),
        "cache": run["cache"],
    })

    # The structural claim: one shard pays at most one parametric compile
    # and never falls back to per-point rebuilds on the (affine-in-Ip)
    # probe family.
    assert run["anchor"]["counters"].get("solved", 0) == 0, \
        "the anchor was re-synthesised instead of replayed from pll3's cache"
    assert len(structures) >= 1
    for relaxation, entry in structures.items():
        assert entry.get("parametric_compiles", 0) <= 1, \
            f"{relaxation} probe structure recompiled"
        assert entry.get("rebuild_compiles", 0) == 0, \
            f"{relaxation} probe structure fell back to per-point rebuilds"
    assert total_rebuilds == 0
    # The sampling gate decides all 200 points from the structural models.
    for relaxation, entry in structures.items():
        assert entry.get("sampling") == "affine", \
            f"{relaxation} sampling fell back to per-point model builds"
        assert entry.get("model_builds", 0) <= 3, \
            f"{relaxation} sampling built {entry.get('model_builds')} models"
    # Every sampling-passing point bound (not compiled) its conic data, and
    # the certified region is the upper end of the ladder (healthy pump).
    assert certified >= 1
    assert report.frontier["summary"]["points"] == POINTS
