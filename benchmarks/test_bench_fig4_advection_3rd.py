"""Figure 4 — bounded advection of the outer set for the third-order CP PLL.

Regenerates the advection picture of Figure 4: the outer initial set is
advected step by step under the pumping-mode dynamics, towards the attractive
invariant the cold ``pll3`` run certified and under ``pll3``'s advection
options, and the bench prints the per-iteration extent of the advected level
set on the (v1, v2) and (v2, e) planes, together with whether/when the set is
absorbed by the attractive invariant (Algorithm 1's stopping test).
"""


from repro.analysis import project_sublevel_set
from repro.core import run_bounded_advection
from repro.engine import STEP_ADVECTION
from repro.pll import MODE_PUMP_UP

from benchutil import certified_invariant, print_rows


def test_bench_fig4_advection_third_order(benchmark, pll3_run):
    problem = pll3_run.problem
    model = problem.pll_model
    invariant = certified_invariant(pll3_run)
    assert invariant is not None, "pll3 registers property_one"
    outer = model.outer_set_polynomial()
    field = model.nominal_fields()[MODE_PUMP_UP]

    result = benchmark.pedantic(
        run_bounded_advection,
        args=(MODE_PUMP_UP, outer, field, invariant),
        kwargs=dict(domain=model.mode_domain(MODE_PUMP_UP),
                    options=problem.options.advection),
        rounds=1, iterations=1,
    )

    rows = []
    for axes in (("v1", "v2"), ("v2", "e")):
        for iteration, poly in enumerate(result.polynomial_history()):
            grid = project_sublevel_set(poly, model.state_variables, axes,
                                        model.state_bounds(), resolution=31)
            x_min, x_max, y_min, y_max = grid.extent()
            rows.append((f"{axes}", iteration, f"[{x_min:.2f}, {x_max:.2f}]",
                         f"[{y_min:.2f}, {y_max:.2f}]"))
    print_rows(
        "Figure 4: third-order advection of the outer set (mode2 dynamics)",
        ["plane", "iteration", "x extent", "y extent"],
        rows,
    )
    print(f"advection iterations used: {result.iterations_used} "
          f"(paper: 14), absorbed: {result.converged} "
          f"by level set of {result.absorbing_mode}")
    assert result.iterations_used >= 1
    assert len(result.polynomial_history()) == result.iterations_used + 1
    # The same advection the pipeline's own mode2 job ran.
    job = next(job for job in pll3_run.outcome.jobs
               if job.step == STEP_ADVECTION and job.mode == MODE_PUMP_UP)
    assert job.data["iterations"] == result.iterations_used
    assert job.data["converged"] == result.converged
