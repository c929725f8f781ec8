"""Figure 2 — third-order attractive invariant projected onto (v1, v2) and (v2, e).

Projects the union of the maximised Lyapunov level sets that the cold
``pll3`` run certified (the attractive invariant X1) onto the two coordinate
planes shown in Figure 2 of the paper and prints the per-row spans of the
occupied region (the numeric analogue of the plotted level curves).
"""

import pytest

from repro.analysis import project_union

from benchutil import certified_invariant, print_rows


@pytest.mark.parametrize("axes", [("v1", "v2"), ("v2", "e")])
def test_bench_fig2_projection(benchmark, pll3_run, axes):
    model = pll3_run.problem.pll_model
    invariant = certified_invariant(pll3_run)
    assert invariant is not None, "pll3 registers property_one"
    sublevels = list(invariant.sublevel_polynomials().values())

    grid = benchmark.pedantic(
        project_union,
        args=(sublevels, model.state_variables, axes, model.state_bounds()),
        kwargs=dict(resolution=41, kind="slice"),
        rounds=1, iterations=1,
    )
    x_min, x_max, y_min, y_max = grid.extent()
    print_rows(
        f"Figure 2: attractive invariant projected onto {axes}",
        ["quantity", "value"],
        [("level sets in union", len(sublevels)),
         ("levels", ", ".join(f"{mode} {level:.4f}" for mode, level, _
                              in invariant.summary_rows())),
         ("occupancy fraction", f"{grid.occupancy:.3f}"),
         (f"{axes[0]} extent", f"[{x_min:.2f}, {x_max:.2f}]"),
         (f"{axes[1]} extent", f"[{y_min:.2f}, {y_max:.2f}]")],
    )
    rows = grid.row_summary()
    print_rows(f"Figure 2 data series ({axes[1]} vs {axes[0]} span)",
               [axes[1], f"{axes[0]}_min", f"{axes[0]}_max"],
               [(f"{y:.2f}", f"{lo:.2f}", f"{hi:.2f}") for y, lo, hi in rows[::4]])
    # The invariant is a nonempty neighbourhood of the locked equilibrium.
    assert grid.occupancy > 0.0
    assert x_min <= 0.0 <= x_max
    assert y_min <= 0.0 <= y_max
