"""Shared fixtures for the benchmark harness.

Each paper table/figure has a dedicated ``test_bench_*`` module.  The heavy
pipeline artefacts (Lyapunov certificates, attractive invariants, verification
reports) are computed once per session with *reduced budgets* — the goal is to
regenerate the shape of every table and figure on a laptop in minutes, not to
match the authors' absolute wall-clock numbers (see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import pytest

from repro.core import (
    AdvectionOptions,
    AttractiveInvariant,
    EscapeOptions,
    InevitabilityOptions,
    InevitabilityVerifier,
    LevelSetOptions,
    LyapunovSynthesisOptions,
    LevelSetMaximizer,
)
from repro.core.inevitability import levelset_domain_for
from repro.pll import (
    RegionOfInterest,
    build_fourth_order_model,
    build_third_order_model,
)
from repro.scenarios import ScenarioProblem


def print_rows(title, header, rows):
    """Uniform table printing for every bench (captured with ``pytest -s``)."""
    print()
    print(f"=== {title} ===")
    print(" | ".join(header))
    for row in rows:
        print(" | ".join(str(item) for item in row))


# ---------------------------------------------------------------------------
# Machine-readable benchmark output: with ``REPRO_BENCH_WRITE=1`` every bench
# writes ``benchmarks/BENCH_<name>.json`` through ``write_bench``, so the
# performance trajectory is tracked across PRs (the CI bench jobs set it and
# upload the files as build artifacts).
# Table 2 benches call ``record_bench`` and the session-finish hook merges
# their records into ``BENCH_table2.json``.
# ---------------------------------------------------------------------------
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_BENCH_RECORDS = {}


def bench_path(name):
    return os.path.join(BENCH_DIR, f"BENCH_{name}.json")


def write_bench(name, schema, body):
    """Write ``body`` to ``BENCH_<name>.json`` with the common header.

    Writes only when ``REPRO_BENCH_WRITE=1`` is set, so a plain test run
    leaves the tracked BENCH files untouched.
    """
    if os.environ.get("REPRO_BENCH_WRITE") != "1":
        return
    document = {
        "schema": schema,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        **body,
    }
    path = bench_path(name)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n[bench] wrote {path}")


def record_bench(key, payload):
    """Register one benchmark record for the end-of-session JSON dump."""
    _BENCH_RECORDS[key] = payload


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_RECORDS:
        return
    # Merge into any existing document so a partial session (e.g. a single
    # bench module under -k) refreshes its own records without clobbering the
    # rest of the trajectory file.
    records = {}
    try:
        with open(bench_path("table2")) as handle:
            previous = json.load(handle)
        if isinstance(previous.get("records"), dict):
            records.update(previous["records"])
    except (OSError, ValueError):
        pass
    records.update(_BENCH_RECORDS)
    write_bench("table2", "bench-table2/v1", {"records": records})


def benchmark_lyapunov_options(**overrides):
    options = dict(
        certificate_degree=2,
        multiplier_degree=2,
        positivity_margin=0.05,
        lock_tube_radius=0.6,
        validate_samples=1500,
        validation_tolerance=5e-2,
        solver_settings=dict(max_iterations=8000, eps_rel=1e-5, eps_abs=1e-6),
    )
    options.update(overrides)
    return LyapunovSynthesisOptions(**options)


def benchmark_pipeline_options(**lyapunov_overrides):
    return InevitabilityOptions(
        lyapunov=benchmark_lyapunov_options(**lyapunov_overrides),
        levelset=LevelSetOptions(bisection_tolerance=0.05,
                                 max_bisection_iterations=10,
                                 initial_upper_bound=5.0,
                                 solver_settings=dict(max_iterations=4000)),
        advection=AdvectionOptions(time_step=1e-1, max_iterations=14,
                                   inclusion_check_every=2,
                                   solver_settings=dict(max_iterations=4000)),
        escape=EscapeOptions(certificate_degree=2, validate_samples=500,
                             solver_settings=dict(max_iterations=4000)),
    )


@pytest.fixture(scope="session")
def third_order_model():
    return build_third_order_model(
        region=RegionOfInterest(voltage_bound=4.0, phase_bound=2.0),
        uncertainty="pump",
    )


@pytest.fixture(scope="session")
def fourth_order_model():
    return build_fourth_order_model(
        region=RegionOfInterest(voltage_bound=2.0, phase_bound=1.0),
        uncertainty="pump",
    )


@pytest.fixture(scope="session")
def third_order_report(third_order_model):
    verifier = InevitabilityVerifier(third_order_model, benchmark_pipeline_options())
    return verifier.verify()


@pytest.fixture(scope="session")
def fourth_order_report(fourth_order_model):
    verifier = InevitabilityVerifier(
        fourth_order_model,
        benchmark_pipeline_options(lock_tube_radius=0.8),
    )
    return verifier.verify()


def levelset_domains(model, modes):
    """Each mode's level-set domain under the benchmark pipeline options."""
    problem = ScenarioProblem.from_pll_model(
        model, benchmark_pipeline_options()).fill_option_defaults()
    return {mode: levelset_domain_for(problem, problem.options, mode)
            for mode in modes}


def invariant_or_fallback(report, model):
    """Use the pipeline's attractive invariant, or a fallback built from the
    synthesised (possibly only approximately validated) certificates so the
    figure benches always have level sets to project."""
    if report.property_one.invariant is not None:
        return report.property_one.invariant
    certificates = report.property_one.certificates
    if certificates:
        domains = levelset_domains(model, certificates)
        maximizer = LevelSetMaximizer(LevelSetOptions(
            bisection_tolerance=0.1, max_bisection_iterations=8,
            initial_upper_bound=5.0, solver_settings=dict(max_iterations=3000)))
        try:
            level_sets = maximizer.maximize_all(certificates, domains,
                                                bounds=model.state_bounds())
            return AttractiveInvariant(level_sets, model.state_variables)
        except Exception:  # pragma: no cover - fallback of the fallback below
            pass
    # Last resort: a small analytic ellipsoid so the projection code still runs.
    from repro.core.levelset import MaximizedLevelSet
    from repro.polynomial import Polynomial

    variables = model.state_variables
    V = Polynomial.zero(variables)
    for v in variables:
        xi = Polynomial.from_variable(v, variables)
        V = V + xi * xi
    level_sets = {"mode1": MaximizedLevelSet("mode1", V, 1.0, iterations=0)}
    return AttractiveInvariant(level_sets, variables)
