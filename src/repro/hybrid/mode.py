"""Modes (discrete states) of a hybrid system.

A mode bundles a polynomial flow map ``f_q`` with the flow set ``C_q`` on
which that map governs the continuous evolution (the framework of Goebel,
Sanfelice & Teel used by the paper).  Flow maps may mention *parameter*
variables in addition to state variables; the verification layer quantifies
over those through interval constraints, while the simulator substitutes
sampled numeric values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelError
from ..polynomial import Polynomial, PolynomialStack, Variable, VariableVector
from ..sos import SemialgebraicSet


@dataclass
class Mode:
    """One discrete mode of a hybrid system.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"mode1"`` for UP=0/DOWN=0).
    index:
        Integer index used by multiple-Lyapunov bookkeeping.
    state_variables:
        The continuous state variables (shared across all modes).
    flow_map:
        Tuple of polynomials, one per state variable, possibly also involving
        parameter variables.
    flow_set:
        Semialgebraic description of where flowing in this mode is allowed.
    parameter_variables:
        Variables of ``flow_map`` that are uncertain parameters rather than
        states (empty for parameter-free models).
    contains_equilibrium:
        True when the locked equilibrium lies in this mode's flow set (the
        set ``I_0`` of Theorem 1).
    """

    name: str
    index: int
    state_variables: VariableVector
    flow_map: Tuple[Polynomial, ...]
    flow_set: SemialgebraicSet
    parameter_variables: VariableVector = field(default_factory=lambda: VariableVector([]))
    contains_equilibrium: bool = False

    def __post_init__(self) -> None:
        self.flow_map = tuple(self.flow_map)
        if len(self.flow_map) != len(self.state_variables):
            raise ModelError(
                f"mode {self.name!r}: flow map has {len(self.flow_map)} components "
                f"for {len(self.state_variables)} state variables"
            )
        allowed = set(self.state_variables.names) | set(self.parameter_variables.names)
        for i, component in enumerate(self.flow_map):
            used = set(component.variables.names)
            if not used <= allowed:
                raise ModelError(
                    f"mode {self.name!r}: flow map component {i} uses variables "
                    f"{sorted(used - allowed)} that are neither states nor parameters"
                )

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.state_variables)

    @property
    def has_parameters(self) -> bool:
        return len(self.parameter_variables) > 0

    # ------------------------------------------------------------------
    def flow_map_with_parameters(self,
                                 parameter_values: Mapping[Variable, float]
                                 ) -> Tuple[Polynomial, ...]:
        """Substitute numeric parameter values, leaving a state-only vector field."""
        if not self.has_parameters:
            return tuple(f.with_variables(self.state_variables) for f in self.flow_map)
        missing = [p for p in self.parameter_variables if p not in parameter_values]
        if missing:
            raise ModelError(f"mode {self.name!r}: missing parameter values for {missing}")
        substituted = []
        for component in self.flow_map:
            subs = {p: float(parameter_values[p]) for p in self.parameter_variables
                    if p in component.variables}
            poly = component.substitute(subs) if subs else component
            substituted.append(poly.with_variables(self.state_variables))
        return tuple(substituted)

    def vector_field_function(
        self, parameter_values: Optional[Mapping[Variable, float]] = None
    ) -> Callable[[np.ndarray], np.ndarray]:
        """A numeric callable ``x -> f_q(x)`` for the simulator.

        All flow-map components are fused into one :class:`PolynomialStack`,
        so each right-hand-side evaluation inside the ODE integrator is a
        single array contraction.
        """
        field_polys = self.flow_map_with_parameters(parameter_values or {})
        stack = PolynomialStack(field_polys, self.state_variables)
        return stack.evaluate

    def drift_at(self, state: Sequence[float],
                 parameter_values: Optional[Mapping[Variable, float]] = None) -> np.ndarray:
        return self.vector_field_function(parameter_values)(np.asarray(state, dtype=float))

    def admits(self, state: Sequence[float], tolerance: float = 1e-9) -> bool:
        """Numeric membership in the flow set (state-only part)."""
        return self.flow_set.contains(state, tolerance=tolerance)

    def describe(self) -> str:
        return (f"Mode({self.name!r}, index={self.index}, "
                f"{self.num_states} states, "
                f"{len(self.flow_set.inequalities)} flow-set inequalities, "
                f"equilibrium={'yes' if self.contains_equilibrium else 'no'})")
