"""Discrete transitions (jumps) of a hybrid system."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelError
from ..polynomial import Polynomial, PolynomialStack, VariableVector
from ..sos import SemialgebraicSet


@dataclass
class Transition:
    """A jump ``source -> target`` with guard set and polynomial reset map.

    Attributes
    ----------
    source, target:
        Mode names.
    guard_set:
        Semialgebraic jump set ``D`` on which the transition is enabled
        (used by the verification conditions, e.g. Theorem 1 condition 4).
    reset_map:
        Tuple of polynomials giving ``x+ = R(x)``; ``None`` means identity.
    trigger:
        Scalar polynomial used by the simulator for event detection: the jump
        fires when ``trigger`` crosses zero from below.  Defaults to the first
        guard inequality when present.
    """

    source: str
    target: str
    state_variables: VariableVector
    guard_set: SemialgebraicSet
    reset_map: Optional[Tuple[Polynomial, ...]] = None
    trigger: Optional[Polynomial] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.reset_map is not None:
            self.reset_map = tuple(self.reset_map)
            if len(self.reset_map) != len(self.state_variables):
                raise ModelError(
                    f"transition {self.source}->{self.target}: reset map has "
                    f"{len(self.reset_map)} components for {len(self.state_variables)} states"
                )
        if self.trigger is None and self.guard_set.inequalities:
            self.trigger = self.guard_set.inequalities[0]
        if not self.name:
            self.name = f"{self.source}->{self.target}"

    # ------------------------------------------------------------------
    @property
    def is_identity_reset(self) -> bool:
        if self.reset_map is None:
            return True
        for i, component in enumerate(self.reset_map):
            expected = Polynomial.from_variable(self.state_variables[i], self.state_variables)
            if not component.with_variables(self.state_variables).almost_equal(expected):
                return False
        return True

    def reset_polynomials(self) -> Tuple[Polynomial, ...]:
        """The reset map, materialising the identity when none was given."""
        if self.reset_map is not None:
            return self.reset_map
        return tuple(
            Polynomial.from_variable(v, self.state_variables) for v in self.state_variables
        )

    def _reset_stack(self) -> PolynomialStack:
        # Cached stacked evaluator of the reset map (jumps can fire thousands
        # of times per simulation).
        stack = getattr(self, "_reset_stack_cache", None)
        if stack is None:
            stack = PolynomialStack(
                [poly.with_variables(self.state_variables)
                 for poly in self.reset_polynomials()],
                self.state_variables,
            )
            object.__setattr__(self, "_reset_stack_cache", stack)
        return stack

    def apply_reset(self, state: Sequence[float]) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if self.reset_map is None:
            return state.copy()
        return self._reset_stack().evaluate(state)

    def describe(self) -> str:
        reset = "identity" if self.is_identity_reset else "polynomial"
        return f"Transition({self.name}: guard with {len(self.guard_set.inequalities)} ineqs, reset={reset})"
