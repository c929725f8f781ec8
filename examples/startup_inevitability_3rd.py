"""Start-up inevitability study for the third-order CP PLL.

The motivating problem of the paper: for which initial voltages/phase errors
does the PLL *inevitably* reach lock?  This example runs the complete
verification methodology (multiple Lyapunov certificates -> attractive
invariant -> bounded advection -> escape certificates) on the registered
``pll3`` scenario, with the options the scenario registry declares, prints
the resulting report, then spot-checks the conclusion by simulating a
handful of start-up states.  A cold run takes about a minute.

Run with:  python examples/startup_inevitability_3rd.py
"""

from __future__ import annotations


from repro.analysis import check_invariant_convergence, random_initial_states
from repro.core import InevitabilityVerifier
from repro.scenarios import build_problem


def main() -> None:
    problem = build_problem("pll3")
    report = InevitabilityVerifier(problem).verify()
    print(report.render_text())

    invariant = report.property_one.invariant
    if invariant is None:
        print(f"\nNo attractive invariant: {report.property_one.message}")
        return

    print("\nSpot-checking the claim with simulated start-up transients:")
    model = problem.pll_model
    initial_states = random_initial_states(model, count=6, scale=0.7, seed=3)
    # The union-invariance claim is stronger than what per-mode certificates
    # with independent levels prove; inside the lock tube the decrease
    # condition was not enforced, so those samples are exempt.
    findings = check_invariant_convergence(
        model, invariant, initial_states, duration=60.0, dt=2e-3,
        tube_radius=problem.options.lyapunov.lock_tube_radius)
    if not findings:
        print(f"  all {len(initial_states)} sampled start-up states converged to the "
              "lock neighbourhood and never left X1 after entering it")
    else:
        for finding in findings:
            print(f"  COUNTEREXAMPLE CANDIDATE: {finding}")


if __name__ == "__main__":
    main()
