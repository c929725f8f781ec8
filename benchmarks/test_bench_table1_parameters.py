"""Table 1 — CP PLL parameters used in the experimentation.

Regenerates the parameter rows of Table 1 (third- and fourth-order columns)
from :class:`repro.pll.PLLParameters` and benchmarks model construction from
those parameters (the cheapest stage of the tool chain, reported for
completeness of the harness).
"""


from repro.pll import PLLParameters, build_fourth_order_model, build_third_order_model

from benchutil import print_rows


def _merged_table():
    third = dict(PLLParameters.third_order_paper().table_rows())
    fourth = dict(PLLParameters.fourth_order_paper().table_rows())
    names = ["C1", "C2", "C3", "R", "R2", "f_ref", "K0", "Ip", "N"]
    rows = []
    for name in names:
        rows.append((name, third.get(name, "-"), fourth.get(name, "-")))
    return rows


def test_bench_table1_parameter_rows(benchmark):
    rows = benchmark(_merged_table)
    print_rows("Table 1: PLL parameters used in the experimentation",
               ["Parameter", "Third Order", "Fourth Order"], rows)
    assert len(rows) == 9
    assert rows[0][1].startswith("[1.98")
    assert rows[-1][2].startswith("[495")


def test_bench_table1_model_construction(benchmark):
    def build_both():
        third = build_third_order_model()
        fourth = build_fourth_order_model()
        return third, fourth

    third, fourth = benchmark(build_both)
    print_rows(
        "Table 1 (derived): normalised rate constants",
        ["constant", "third order", "fourth order"],
        [(name, f"{third.rate_constants.get(name, float('nan')):.4g}",
          f"{fourth.rate_constants.get(name, float('nan')):.4g}")
         for name in sorted(set(third.rate_constants) | set(fourth.rate_constants))],
    )
    assert third.parameters.is_averaged_model_stable()
    assert fourth.parameters.is_averaged_model_stable()
