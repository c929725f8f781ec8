"""Ablation — Lyapunov certificate degree (2 vs 4) on the third-order CP PLL.

The paper uses degree-6 (third order) and degree-4 (fourth order)
certificates; this ablation quantifies how the SDP size and synthesis time
grow with the certificate degree at a fixed reduced budget.  The registered
scenarios default to degree 2 because the Gram matrices, and with them the
synthesis time, grow quickly with the degree.
"""

import pytest

from repro.core import LyapunovSynthesisOptions, MultipleLyapunovSynthesizer
from repro.pll import RegionOfInterest, build_third_order_model

from benchutil import print_rows


@pytest.mark.parametrize("degree", [2, 4])
def test_ablation_certificate_degree(benchmark, degree):
    model = build_third_order_model(
        region=RegionOfInterest(voltage_bound=3.0, phase_bound=1.5),
        uncertainty="none",
    )
    options = LyapunovSynthesisOptions(
        certificate_degree=degree,
        multiplier_degree=2,
        positivity_margin=0.05,
        lock_tube_radius=0.6,
        validate_samples=600,
        validation_tolerance=5e-2,
        solver_settings=dict(max_iterations=3000, eps_rel=1e-4, eps_abs=1e-5),
    )
    synthesizer = MultipleLyapunovSynthesizer(model.system, options,
                                              region_box=model.state_bounds())
    program, _ = synthesizer.build_program()

    result = benchmark.pedantic(synthesizer.synthesize, rounds=1, iterations=1)
    print_rows(
        f"Ablation: certificate degree = {degree}",
        ["metric", "value"],
        [("scalar decision variables", program.num_decision_variables),
         ("SOS constraints", program.num_sos_constraints),
         ("synthesis time (s)", f"{result.synthesis_time:.2f}"),
         ("solver status", result.solution.status.value if result.solution else "n/a"),
         ("sampling validation", "pass" if result.feasible else "violations remain")],
    )
    assert program.num_sos_constraints > 0
