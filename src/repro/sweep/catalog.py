"""Built-in sweep families.

Each entry pairs a registered scenario with an expansion rule over its
declared sweep axes.  CLI runs can reshape any of them without code changes
(``--grid axis=lo:hi:n``, ``--samples``, ``--seed``); the reshaped family
keeps the catalog name but gets its own fingerprint, so progress files and
frontier reports never mix distinct point sets.
"""

from __future__ import annotations

from ..scenarios.registry import get_scenario
from .families import (
    DegradationLadder,
    GridSweep,
    MonteCarloSweep,
    register_sweep_family,
)

# Nominal pump current of the paper's third-order PLL (Table 1 centre);
# Monte-Carlo ranges below are absolute values derived from it.
_PLL3_IP = get_scenario("pll3").sweep_axes["i_p"]
_PLL3_KVCO = get_scenario("pll3").sweep_axes["k_vco"]

register_sweep_family(GridSweep(
    name="vanderpol_grid",
    scenario="vanderpol",
    description="Van der Pol damping × stiffness grid (the CI smoke "
                "family)",
    grid_axes=(("mu", 0.5, 2.0, 3), ("stiffness", 0.6, 1.4, 3)),
    tags=("continuous", "smoke"),
))

register_sweep_family(GridSweep(
    name="duffing_grid",
    scenario="duffing",
    description="Duffing damping × cubic-stiffness grid with degree-4 "
                "certificates",
    grid_axes=(("delta", 0.3, 1.3, 4), ("beta", 0.5, 1.5, 3)),
    tags=("continuous", "degree4"),
))

register_sweep_family(GridSweep(
    name="buck_grid",
    scenario="buck",
    description="Buck converter input-voltage × duty-cycle grid",
    grid_axes=(("v_in", 0.6, 1.4, 3), ("duty", 0.3, 0.7, 3)),
    tags=("power",),
))

register_sweep_family(DegradationLadder(
    name="pll3_ip_ladder",
    scenario="pll3",
    description="Charge-pump ageing ladder: Ip swept over [0.2, 1.0] of "
                "nominal (pll3_weak_pump generalised to a continuum)",
    axis="i_p",
    lower=0.2,
    upper=1.0,
    steps=9,
    tags=("pll", "degraded"),
))

register_sweep_family(DegradationLadder(
    name="pll3_kvco_ladder",
    scenario="pll3",
    description="VCO gain drift ladder: Kvco swept over [0.6, 1.4] of nominal",
    axis="k_vco",
    lower=0.6,
    upper=1.4,
    steps=9,
    tags=("pll", "process-variation"),
))

register_sweep_family(MonteCarloSweep(
    name="pll3_mc",
    scenario="pll3",
    description="Monte-Carlo process variation of the third-order PLL: "
                "uniform (Ip, Kvco) draws around Table 1 nominals",
    ranges=(("i_p", 0.8 * _PLL3_IP, 1.2 * _PLL3_IP, 1),
            ("k_vco", 0.8 * _PLL3_KVCO, 1.2 * _PLL3_KVCO, 1)),
    samples=16,
    seed=2026,
    tags=("pll", "monte-carlo"),
))
