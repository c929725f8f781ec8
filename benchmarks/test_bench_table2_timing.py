"""Table 2 — computation time of the inevitability verification steps.

Reads the session's cold engine runs of the registered ``pll3`` and ``pll4``
scenarios (root ``conftest.py``) and prints the per-step wall-clock
breakdown, the analogue of Table 2 of the paper, with the verdict of each
run.  Absolute numbers differ from the paper (pure-Python first-order
solver); the record keeps the verdict and the certified levels next to the
timings so a row can be read without rerunning anything.
"""

import dataclasses
import time

import pytest

from repro.core import (
    STEP_ADVECTION,
    STEP_ATTRACTIVE_INVARIANT,
    STEP_MAX_LEVEL_CURVES,
    STEP_SET_INCLUSION,
    LevelSetMaximizer,
    MultipleLyapunovSynthesizer,
)
from repro.core.inevitability import levelset_domain_for
from repro.exceptions import CertificateError
from repro.polynomial import Monomial
from repro.scenarios import build_problem
from repro.sdp import ConicProblemBuilder

from benchutil import print_rows, record_bench


def _record_table2(key, title, run):
    """Print and record one order's Table 2 rows with the run's verdict."""
    outcome = run.outcome
    report = outcome.report
    rows = report.table2_rows()
    record_bench(key, {
        "scenario": run.problem.name,
        "steps": [{"step": step, "seconds": seconds, "detail": detail}
                  for step, seconds, detail, _ in rows],
        "total_seconds": report.total_time,
        "property_one": report.property_one.status.value,
        "property_two": report.property_two.status.value,
        "inevitability": report.inevitability_status.value,
        "matches_expected": outcome.matches_expected,
        "levels": run.levels(),
    })
    print_rows(title, ["Step", "Time (s)", "Detail"],
               [(step, f"{seconds:.2f}", detail)
                for step, seconds, detail, _ in rows])
    print(f"scenario={run.problem.name}  "
          f"P1={report.property_one.status.value}  "
          f"P2={report.property_two.status.value}  "
          f"inevitability={report.inevitability_status.value}  "
          f"levels={run.levels()}  total={report.total_time:.1f}s")
    return report


def test_bench_table2_third_order(benchmark, pll3_run):
    report = _record_table2(
        "table2_third_order",
        "Table 2 (third order): verification step timings [s]", pll3_run)
    benchmark.pedantic(report.table2_rows, rounds=1, iterations=1)
    assert pll3_run.outcome.matches_expected
    assert report.property_one.invariant is not None
    for step in (STEP_ATTRACTIVE_INVARIANT, STEP_MAX_LEVEL_CURVES,
                 STEP_ADVECTION, STEP_SET_INCLUSION):
        assert report.timing_for(step) > 0, f"no {step!r} row"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: level-curve maximisation, not attractive-invariant "
    "synthesis, dominates cold pll3 (39.2 s against 16.0 s measured); the "
    "paper's shape returns once a level curve costs one SDP per multiplier"))
def test_bench_table2_third_order_paper_shape(pll3_run):
    report = pll3_run.outcome.report
    # Attractive-invariant synthesis dominates the budget, as in the paper.
    assert report.timing_for(STEP_ATTRACTIVE_INVARIANT) >= \
        report.timing_for(STEP_MAX_LEVEL_CURVES)


def _lyapunov_program(problem, degree):
    """The 4th-order PLL inevitability SOS program (program 1 of the paper)
    as ``pll4`` registers it, with certificates of the given degree."""
    options = dataclasses.replace(problem.options.lyapunov,
                                  certificate_degree=degree)
    synthesizer = MultipleLyapunovSynthesizer(problem.system, options)
    program, _ = synthesizer.build_program()
    return program


def _per_entry_compile(program):
    """The seed's per-Gram-entry compile loop, kept as the reference baseline
    the vectorized ``SOSProgram.compile`` is benchmarked against."""
    builder = ConicProblemBuilder()
    decision_order = program._decision_order()
    var_location = {}
    if decision_order:
        free_id, _ = builder.add_free_block(len(decision_order), name="decision")
        for local, dvar in enumerate(decision_order):
            var_location[dvar] = (free_id, local)
    sos_blocks = []
    for constraint in program._sos_constraints:
        block_id, _ = builder.add_psd_block(constraint.gram_order, name=constraint.name)
        sos_blocks.append((constraint, block_id))
    for constraint, block_id in sos_blocks:
        basis = constraint.basis
        expr = constraint.expression
        support = {}
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                prod = basis[i] * basis[j]
                local, coeff = builder.psd_entry_local_index(block_id, i, j)
                weight = 1.0 if i == j else 2.0
                entry_map = support.setdefault(prod, {})
                key = (block_id, local)
                entry_map[key] = entry_map.get(key, 0.0) + weight * coeff
        all_monomials = set(support) | set(expr.coefficients)
        for mono in sorted(all_monomials, key=Monomial.sort_key):
            entries = dict(support.get(mono, {}))
            coeff_expr = expr.coefficient(mono)
            rhs = coeff_expr.constant
            for dvar, a in coeff_expr.coeffs.items():
                loc = var_location[dvar]
                entries[loc] = entries.get(loc, 0.0) - a
            if not entries:
                continue
            builder.add_equality_row(entries, rhs)
    return builder


def _best_seconds(fn, repeats=5):
    # Best-of-N is far less sensitive to CI runner noise than a mean/median.
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_bench_table2_compile_solve_split():
    """Compile time vs solve time of the 4th-order inevitability SOS program.

    Reports the vectorized compile against the seed's per-Gram-entry Python
    loop (reproduced above as the baseline).  The ratio is wall-clock on a
    shared machine, so it is recorded, not asserted.
    """
    problem = build_problem("pll4").fill_option_defaults()
    rows = []
    speedups = {}
    for degree in (2, 4):
        _lyapunov_program(problem, degree).compile()  # warm the structural caches

        def vectorized():
            program = _lyapunov_program(problem, degree)
            program.compile()[0].build()

        def per_entry():
            program = _lyapunov_program(problem, degree)
            _per_entry_compile(program).build()

        fast = _best_seconds(vectorized)
        slow = _best_seconds(per_entry)
        # Subtract the shared program-construction cost so the ratio compares
        # the compile stages themselves.
        build_only = _best_seconds(lambda: _lyapunov_program(problem, degree))
        compile_fast = fast - build_only
        compile_slow = slow - build_only
        # Below the timer's resolution the difference can come out <= 0; a
        # ratio of that would be meaningless.
        speedups[degree] = (compile_slow / compile_fast
                            if compile_fast > 0 and compile_slow > 0 else None)
        rows.append((f"deg {degree}", f"{compile_fast * 1e3:.2f}",
                     f"{compile_slow * 1e3:.2f}",
                     "n/a" if speedups[degree] is None
                     else f"{speedups[degree]:.1f}x"))
    print_rows(
        "Table 2 extension: SOS compile time, vectorized vs per-entry seed loop [ms]",
        ["Certificate", "Vectorized compile", "Per-entry compile", "Speedup"],
        rows,
    )

    # Solve-time split on the degree-2 program, under pll4's solver settings.
    program = _lyapunov_program(problem, 2)
    solution = program.solve(**problem.options.lyapunov.solver_settings)
    print_rows(
        "Table 2 extension: compile/solve split (degree 2) [s]",
        ["Stage", "Time (s)"],
        [("compile", f"{solution.compile_time:.4f}"),
         ("solve", f"{solution.solve_time:.4f}")],
    )
    assert solution.compile_time > 0.0 and solution.solve_time > 0.0
    record_bench("compile_solve_split", {
        "per_degree_speedup": {str(d): s for d, s in speedups.items()},
        "degree2_compile_seconds": solution.compile_time,
        "degree2_solve_seconds": solution.solve_time,
    })


def test_bench_table2_levelset_batched_vs_serial(pll3_run):
    """Parametric+batched level-curve maximisation vs the serial per-level path.

    The batched side is the cold pll3 run's own level-set jobs (their time
    and level; nothing is re-solved).  The serial side re-maximises the same
    certificates over the same domains on the seed's per-level path: a
    fresh Lemma-1 program is constructed, compiled and solved for every
    probe, with rejections paying the full stall window
    (``infeasibility_detection=False`` reproduces the seed solver's
    economics).  Certified levels must match within the bisection
    tolerance; the wall-clock speedup is recorded, not asserted.
    """
    problem = pll3_run.problem
    options = problem.options
    certificates = pll3_run.outcome.report.property_one.certificates
    batched_jobs = pll3_run.levelset_jobs()
    assert certificates and set(batched_jobs) == set(certificates)
    tolerance = options.levelset.bisection_tolerance
    serial_options = dataclasses.replace(
        options.levelset, strategy="serial",
        solver_settings=dict(options.levelset.solver_settings,
                             infeasibility_detection=False))

    maximizer = LevelSetMaximizer(serial_options)
    serial_levels, serial_times = {}, {}
    for name in certificates:
        domain = levelset_domain_for(problem, options, name)
        start = time.perf_counter()
        try:
            serial_levels[name] = maximizer.maximize(
                name, certificates[name], domain,
                bounds=problem.state_bounds()).level
        except CertificateError:
            serial_levels[name] = None
        serial_times[name] = time.perf_counter() - start
    batched_levels = {name: job.data.get("level")
                      for name, job in batched_jobs.items()}
    batched_times = {name: job.seconds for name, job in batched_jobs.items()}

    total_serial = sum(serial_times.values())
    total_batched = sum(batched_times.values())
    speedup = total_serial / total_batched if total_batched > 0 else None
    rows = []
    for name in certificates:
        fmt = lambda level: "-" if level is None else f"{level:.4f}"
        rows.append((name, fmt(serial_levels[name]), f"{serial_times[name]:.2f}",
                     fmt(batched_levels[name]), f"{batched_times[name]:.2f}"))
    print_rows(
        "Table 2 extension: level-set maximisation, serial per-level vs batched [s]",
        ["Mode", "Serial level", "Serial time", "Batched level", "Batched time"],
        rows + [("total", "", f"{total_serial:.2f}", "", f"{total_batched:.2f}")],
    )
    record_bench("levelset_batched_vs_serial", {
        "scenario": problem.name,
        "serial_seconds": total_serial,
        "batched_seconds": total_batched,
        "speedup": speedup,
        "modes": {name: {"serial_level": serial_levels[name],
                         "batched_level": batched_levels[name],
                         "serial_seconds": serial_times[name],
                         "batched_seconds": batched_times[name]}
                  for name in certificates},
    })

    for name in certificates:
        serial_level = serial_levels[name]
        batched_level = batched_levels[name]
        assert (serial_level is None) == (batched_level is None), (
            f"{name}: serial and batched paths disagree about certifiability")
        if serial_level is not None:
            assert abs(serial_level - batched_level) <= tolerance + 1e-9, (
                f"{name}: levels diverge beyond the bisection tolerance "
                f"({serial_level:.4f} vs {batched_level:.4f})")
    assert total_serial > 0 and total_batched > 0


def test_bench_table2_fourth_order(benchmark, pll4_run):
    report = _record_table2(
        "table2_fourth_order",
        "Table 2 (fourth order): verification step timings [s]", pll4_run)
    benchmark.pedantic(report.table2_rows, rounds=1, iterations=1)
    assert pll4_run.outcome.matches_expected
    assert report.timing_for(STEP_ATTRACTIVE_INVARIANT) > 0
