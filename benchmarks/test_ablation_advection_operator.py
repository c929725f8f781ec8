"""Ablation — advection operator: exact composition vs SOS projection.

For affine mode dynamics the composed Taylor
backward map keeps the polynomial degree fixed, so the cheap composition
operator is exact; the SOS-projected operator (the paper's program (6) shape)
pays one SOS solve per step for a fixed-degree representation.  This bench
measures one advection step of the third-order outer set under both operators.
"""

import pytest

from repro.core import AdvectionOptions, LevelSetAdvector
from repro.pll import MODE_PUMP_UP, build_third_order_model

from benchutil import print_rows


@pytest.mark.parametrize("operator", ["composition", "sos_projection"])
def test_ablation_advection_operator(benchmark, operator):
    model = build_third_order_model(uncertainty="none")
    outer = model.outer_set_polynomial()
    field = model.nominal_fields()[MODE_PUMP_UP]
    domain = model.mode_domain(MODE_PUMP_UP)
    advector = LevelSetAdvector(AdvectionOptions(
        time_step=0.1, operator=operator,
        solver_settings=dict(max_iterations=8000, stall_window=8000, eps_rel=1e-4)))

    from repro.exceptions import CertificateError

    def one_step():
        try:
            return advector.advect(outer, field, domain=domain)
        except CertificateError as exc:
            return None, str(exc)

    advected, epsilon = benchmark(one_step)
    if advected is None:
        print_rows(
            f"Ablation: advection operator = {operator}",
            ["metric", "value"],
            [("outcome", "projection SOS solve did not certify"),
             ("detail", str(epsilon)[:60])],
        )
        return
    print_rows(
        f"Ablation: advection operator = {operator}",
        ["metric", "value"],
        [("advected polynomial degree", advected.degree),
         ("projection slack epsilon", f"{epsilon:.3e}"),
         ("origin inside advected set", advected.evaluate([0.0] * 3) < 0)],
    )
    assert advected.degree <= max(outer.degree, 2)
    assert advected.evaluate([0.0, 0.0, 0.0]) < 0
