"""Figure 3 — fourth-order attractive invariant projected onto (v2, v3) and (v2, e).

Projects the invariant of the cold ``pll4`` run when the pipeline certified
one; otherwise reports which modes certified no level and projects nothing.
"""

import pytest

from repro.analysis import project_union

from benchutil import certified_invariant, print_rows


@pytest.mark.parametrize("axes", [("v2", "v3"), ("v2", "e")])
def test_bench_fig3_projection(benchmark, pll4_run, axes):
    model = pll4_run.problem.pll_model
    invariant = certified_invariant(pll4_run)
    if invariant is None:
        return
    sublevels = list(invariant.sublevel_polynomials().values())

    grid = benchmark.pedantic(
        project_union,
        args=(sublevels, model.state_variables, axes, model.state_bounds()),
        kwargs=dict(resolution=41, kind="slice"),
        rounds=1, iterations=1,
    )
    x_min, x_max, y_min, y_max = grid.extent()
    print_rows(
        f"Figure 3: attractive invariant projected onto {axes}",
        ["quantity", "value"],
        [("level sets in union", len(sublevels)),
         ("levels", ", ".join(f"{mode} {level:.4f}" for mode, level, _
                              in invariant.summary_rows())),
         ("occupancy fraction", f"{grid.occupancy:.3f}"),
         (f"{axes[0]} extent", f"[{x_min:.2f}, {x_max:.2f}]"),
         (f"{axes[1]} extent", f"[{y_min:.2f}, {y_max:.2f}]")],
    )
    assert grid.occupancy > 0.0
    assert x_min <= 0.0 <= x_max
