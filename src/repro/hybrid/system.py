"""The hybrid system container ``H = (C, F, D, G)`` used by the paper."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelError
from ..polynomial import Polynomial, Variable, VariableVector
from ..utils import Interval
from .mode import Mode
from .transition import Transition


@dataclass
class HybridSystem:
    """A hybrid dynamical system with polynomial flow and jump maps.

    The container mirrors equation (1) of the paper: a family of flow maps
    ``f_q`` over flow sets ``C_q`` and jump (reset) maps over jump sets
    ``D``, plus uncertain parameters constrained to a box ``U``.
    """

    name: str
    state_variables: VariableVector
    modes: Tuple[Mode, ...]
    transitions: Tuple[Transition, ...] = ()
    parameter_variables: VariableVector = field(default_factory=lambda: VariableVector([]))
    parameter_intervals: Dict[Variable, Interval] = field(default_factory=dict)
    equilibrium: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.modes = tuple(self.modes)
        self.transitions = tuple(self.transitions)
        if not self.modes:
            raise ModelError("a hybrid system needs at least one mode")
        names = [m.name for m in self.modes]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate mode names: {names}")
        mode_names = set(names)
        for transition in self.transitions:
            if transition.source not in mode_names or transition.target not in mode_names:
                raise ModelError(
                    f"transition {transition.name} references unknown modes "
                    f"({transition.source} -> {transition.target})"
                )
        for mode in self.modes:
            if mode.state_variables != self.state_variables:
                raise ModelError(
                    f"mode {mode.name!r} uses a different state variable ordering"
                )
        for pvar in self.parameter_variables:
            if pvar not in self.parameter_intervals:
                raise ModelError(f"no interval provided for parameter {pvar}")
        if self.equilibrium is not None:
            self.equilibrium = np.asarray(self.equilibrium, dtype=float)
            if self.equilibrium.shape != (len(self.state_variables),):
                raise ModelError("equilibrium dimension does not match state variables")

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.state_variables)

    @property
    def mode_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.modes)

    def mode(self, name: str) -> Mode:
        for mode in self.modes:
            if mode.name == name:
                return mode
        raise KeyError(f"unknown mode {name!r}; available: {self.mode_names}")

    def transitions_from(self, mode_name: str) -> Tuple[Transition, ...]:
        return tuple(t for t in self.transitions if t.source == mode_name)

    def equilibrium_modes(self) -> Tuple[Mode, ...]:
        """Modes whose flow set contains the equilibrium (the index set I_0)."""
        return tuple(m for m in self.modes if m.contains_equilibrium)

    # ------------------------------------------------------------------
    # Parameter handling
    # ------------------------------------------------------------------
    def nominal_parameters(self) -> Dict[Variable, float]:
        return {p: self.parameter_intervals[p].center for p in self.parameter_variables}

    def parameter_vertex_assignments(self) -> List[Dict[Variable, float]]:
        """All corner combinations of the parameter box (for vertex enumeration)."""
        assignments: List[Dict[Variable, float]] = [{}]
        for p in self.parameter_variables:
            interval = self.parameter_intervals[p]
            values = [interval.lower] if interval.is_degenerate() else [interval.lower,
                                                                        interval.upper]
            assignments = [{**a, p: v} for a in assignments for v in values]
        return assignments

    def parameter_constraints(self) -> Tuple[Polynomial, ...]:
        """Interval constraints ``(u - lo)(hi - u) >= 0`` over the parameter variables."""
        constraints = []
        full = self.state_variables.union(self.parameter_variables)
        for p in self.parameter_variables:
            interval = self.parameter_intervals[p]
            if interval.is_degenerate():
                continue
            u = Polynomial.from_variable(p, full)
            constraints.append((u - interval.lower) * (interval.upper - u))
        return tuple(constraints)

    # ------------------------------------------------------------------
    # Numeric checks
    # ------------------------------------------------------------------
    def active_modes(self, state: Sequence[float], tolerance: float = 1e-9) -> Tuple[Mode, ...]:
        return tuple(m for m in self.modes if m.admits(state, tolerance=tolerance))

    def is_equilibrium(self, state: Sequence[float], tolerance: float = 1e-7,
                       parameters: Optional[Mapping[Variable, float]] = None) -> bool:
        """Definition 3: some mode's flow map vanishes at the state."""
        parameters = parameters or self.nominal_parameters()
        for mode in self.modes:
            if not mode.admits(state, tolerance=max(tolerance, 1e-6)):
                continue
            drift = mode.drift_at(state, parameters)
            if np.linalg.norm(drift) <= tolerance:
                return True
        return False

    def describe(self) -> str:
        lines = [f"HybridSystem({self.name!r})",
                 f"  states: {list(self.state_variables.names)}"]
        if len(self.parameter_variables):
            lines.append(
                "  parameters: "
                + ", ".join(f"{p.name} in {self.parameter_intervals[p]}"
                            for p in self.parameter_variables)
            )
        for mode in self.modes:
            lines.append("  " + mode.describe())
        for transition in self.transitions:
            lines.append("  " + transition.describe())
        if self.equilibrium is not None:
            lines.append(f"  equilibrium: {np.round(self.equilibrium, 6).tolist()}")
        return "\n".join(lines)
