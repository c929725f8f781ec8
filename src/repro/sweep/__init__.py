"""Parameter sweeps: certified feasibility frontiers over scenario axes.

The subsystem answers "over which parameter region does the certificate
survive?" — declaratively (:mod:`families`),
cheaply (one structural compile per family structure, an array bind per
point; :mod:`probe`), in parallel (local process pool; :mod:`planner`) and
resumably (:mod:`progress`), reporting a per-axis feasibility frontier
(:mod:`frontier`).
"""

from .families import (
    DegradationLadder,
    GridSweep,
    MonteCarloSweep,
    SweepFamily,
    SweepPoint,
    all_sweep_families,
    get_sweep_family,
    register_sweep_family,
    sweep_family_names,
)
from .frontier import build_frontier, render_frontier_text
from .planner import (
    SweepError,
    SweepOptions,
    SweepReport,
    SweepRunner,
)
from .progress import SweepProgress

__all__ = [
    "DegradationLadder",
    "GridSweep",
    "MonteCarloSweep",
    "SweepFamily",
    "SweepPoint",
    "SweepError",
    "SweepOptions",
    "SweepReport",
    "SweepRunner",
    "SweepProgress",
    "all_sweep_families",
    "build_frontier",
    "get_sweep_family",
    "register_sweep_family",
    "render_frontier_text",
    "sweep_family_names",
]
