"""Figure 5 — fourth-order advection with escape certificates for the
inconclusive sub-region.

The paper reports that fourth-order advection immerses the outer set only from
one direction and that the remaining (pink-shaded) sub-region is handled with
two escape certificates.  This bench regenerates that workflow on the cold
``pll4`` run under ``pll4``'s advection and escape options: advect under both
pumping modes, report per-iteration extents, and (when advection stays
inconclusive) search an escape certificate for the leftover region.  Without
an attractive invariant there is nothing to advect towards; the bench then
reports which modes certified no level.
"""


from repro.analysis import project_sublevel_set
from repro.core import (
    EscapeCertificateSynthesizer,
    escape_region_from_advection,
    run_bounded_advection,
)
from repro.exceptions import CertificateError
from repro.pll import MODE_PUMP_DOWN, MODE_PUMP_UP

from benchutil import certified_invariant, print_rows


def test_bench_fig5_advection_fourth_order(benchmark, pll4_run):
    options = pll4_run.problem.options
    model = pll4_run.problem.pll_model
    invariant = certified_invariant(pll4_run)
    if invariant is None:
        return
    outer = model.outer_set_polynomial()
    fields = model.nominal_fields()

    def run_both_modes():
        results = {}
        for mode_name in (MODE_PUMP_UP, MODE_PUMP_DOWN):
            results[mode_name] = run_bounded_advection(
                mode_name, outer, fields[mode_name], invariant,
                domain=model.mode_domain(mode_name), options=options.advection)
        return results

    results = benchmark.pedantic(run_both_modes, rounds=1, iterations=1)

    rows = []
    escape_count = 0
    for mode_name, result in results.items():
        final = result.final_polynomial
        grid = project_sublevel_set(final, model.state_variables, ("v2", "e"),
                                    model.state_bounds(), resolution=31)
        x_min, x_max, y_min, y_max = grid.extent()
        status = "absorbed" if result.converged else "inconclusive"
        rows.append((mode_name, result.iterations_used, status,
                     f"[{x_min:.2f}, {x_max:.2f}]", f"[{y_min:.2f}, {y_max:.2f}]"))
        if not result.converged:
            region = escape_region_from_advection(
                final, invariant.level_set(mode_name).sublevel_polynomial,
                region_box=model.region_box_set())
            synthesizer = EscapeCertificateSynthesizer(options.escape)
            try:
                certificate = synthesizer.synthesize(mode_name, fields[mode_name],
                                                     region,
                                                     bounds=model.state_bounds())
                escape_count += 1
                rows.append((mode_name, "-", "escape certificate found",
                             f"deg {certificate.certificate.degree}",
                             f"validated={certificate.validation_passed}"))
            except CertificateError as exc:
                rows.append((mode_name, "-", "escape certificate not found",
                             str(exc)[:40], "-"))

    print_rows(
        "Figure 5: fourth-order advection (v2, e projections) + escape certificates",
        ["mode", "iterations", "status", "v2 extent / note", "e extent / note"],
        rows,
    )
    print(f"paper: 7 advection iterations, 2 escape certificates; "
          f"this run: escape certificates found = {escape_count}")
    assert all(result.iterations_used >= 1 for result in results.values())
