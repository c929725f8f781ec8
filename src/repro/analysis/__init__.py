"""Analysis utilities: level-set projections and falsification."""

from .projection import ProjectionGrid, project_sublevel_set, project_union
from .falsification import (
    FalsificationFinding,
    check_certificate_decrease_along_trajectories,
    check_invariant_convergence,
    random_initial_states,
    run_falsification,
    simulate_relay_abstraction,
)

__all__ = [
    "ProjectionGrid",
    "project_sublevel_set",
    "project_union",
    "FalsificationFinding",
    "simulate_relay_abstraction",
    "check_invariant_convergence",
    "check_certificate_decrease_along_trajectories",
    "random_initial_states",
    "run_falsification",
]
