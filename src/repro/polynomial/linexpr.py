"""Affine expressions over scalar decision variables.

The SOS layer builds polynomial identities whose coefficients are *affine*
functions of unknown scalars (Lyapunov coefficients, multiplier coefficients,
level-set radii, ...).  :class:`DecisionVariable` is one such unknown and
:class:`LinExpr` is an affine combination ``sum_k a_k * d_k + constant``.

Keeping this layer strictly affine is what guarantees that coefficient
matching yields *linear* equality constraints, i.e. a semidefinite program
rather than a bilinear matrix inequality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

Number = Union[int, float, np.integer, np.floating]

_COUNTER = itertools.count()


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating))


@dataclass(frozen=True)
class DecisionVariable:
    """A scalar unknown of an optimisation problem.

    Instances are identified by a globally unique integer id so that two
    variables with the same display name never alias each other.
    """

    name: str
    uid: int = field(default_factory=lambda: next(_COUNTER))

    def __repr__(self) -> str:
        return f"DecisionVariable({self.name}#{self.uid})"

    def __str__(self) -> str:
        return self.name

    # Arithmetic promotes to LinExpr.
    def _as_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other):
        return self._as_expr() + other

    def __radd__(self, other):
        return self._as_expr() + other

    def __sub__(self, other):
        return self._as_expr() - other

    def __rsub__(self, other):
        return (-self._as_expr()) + other

    def __mul__(self, other):
        return self._as_expr() * other

    def __rmul__(self, other):
        return self._as_expr() * other

    def __neg__(self):
        return -self._as_expr()


class LinExpr:
    """An affine expression ``sum_k coeffs[d_k] * d_k + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Optional[Mapping[DecisionVariable, Number]] = None,
                 constant: Number = 0.0):
        cleaned: Dict[DecisionVariable, float] = {}
        if coeffs:
            for var, coeff in coeffs.items():
                fc = float(coeff)
                if fc != 0.0:
                    cleaned[var] = cleaned.get(var, 0.0) + fc
        self.coeffs: Dict[DecisionVariable, float] = {
            v: c for v, c in cleaned.items() if c != 0.0
        }
        self.constant: float = float(constant)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_constant(cls, value: Number) -> "LinExpr":
        return cls({}, value)

    @classmethod
    def from_variable(cls, variable: DecisionVariable, coefficient: Number = 1.0) -> "LinExpr":
        return cls({variable: coefficient}, 0.0)

    @staticmethod
    def coerce(value: Union["LinExpr", DecisionVariable, Number]) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, DecisionVariable):
            return LinExpr.from_variable(value)
        if _is_number(value):
            return LinExpr.from_constant(value)
        raise TypeError(f"cannot interpret {value!r} as an affine expression")

    # -- queries -----------------------------------------------------------
    def is_constant(self, tolerance: float = 0.0) -> bool:
        return all(abs(c) <= tolerance for c in self.coeffs.values())

    def variables(self) -> Tuple[DecisionVariable, ...]:
        return tuple(sorted(self.coeffs, key=lambda d: d.uid))

    def coefficient(self, variable: DecisionVariable) -> float:
        return self.coeffs.get(variable, 0.0)

    def evaluate(self, assignment: Mapping[DecisionVariable, float]) -> float:
        total = self.constant
        for var, coeff in self.coeffs.items():
            if var not in assignment:
                raise KeyError(f"no value assigned to {var}")
            total += coeff * float(assignment[var])
        return total

    def __bool__(self) -> bool:
        return bool(self.coeffs) or self.constant != 0.0

    # -- arithmetic ---------------------------------------------------------
    @staticmethod
    def _as_parametric(other):
        """Promote a Polynomial/ParametricPolynomial operand (None otherwise)."""
        from .polynomial import Polynomial
        from .parampoly import ParametricPolynomial

        if isinstance(other, (Polynomial, ParametricPolynomial)):
            return ParametricPolynomial.coerce(other)
        return None

    def __add__(self, other) -> "LinExpr":
        promoted = LinExpr._as_parametric(other)
        if promoted is not None:
            from .parampoly import ParametricPolynomial

            return ParametricPolynomial.coerce(self, promoted.variables) + promoted
        try:
            other_expr = LinExpr.coerce(other)
        except TypeError:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for var, coeff in other_expr.coeffs.items():
            coeffs[var] = coeffs.get(var, 0.0) + coeff
        return LinExpr(coeffs, self.constant + other_expr.constant)

    def __radd__(self, other) -> "LinExpr":
        return self.__add__(other)

    def __neg__(self) -> "LinExpr":
        return LinExpr({v: -c for v, c in self.coeffs.items()}, -self.constant)

    def __sub__(self, other) -> "LinExpr":
        promoted = LinExpr._as_parametric(other)
        if promoted is not None:
            return self.__add__(-promoted)
        try:
            other_expr = LinExpr.coerce(other)
        except TypeError:
            return NotImplemented
        return self.__add__(-other_expr)

    def __rsub__(self, other) -> "LinExpr":
        return (-self).__add__(other)

    def __mul__(self, other) -> "LinExpr":
        promoted = LinExpr._as_parametric(other)
        if promoted is not None:
            return promoted * self
        if _is_number(other):
            scale = float(other)
            return LinExpr({v: c * scale for v, c in self.coeffs.items()}, self.constant * scale)
        other_expr = None
        if isinstance(other, (LinExpr, DecisionVariable)):
            other_expr = LinExpr.coerce(other)
        if other_expr is not None:
            if self.is_constant():
                return other_expr * self.constant
            if other_expr.is_constant():
                return self * other_expr.constant
            raise ValueError(
                "product of two non-constant affine expressions is not affine; "
                "SOS programs must remain linear in the decision variables"
            )
        return NotImplemented

    def __rmul__(self, other) -> "LinExpr":
        return self.__mul__(other)

    def __truediv__(self, other) -> "LinExpr":
        if _is_number(other):
            if float(other) == 0.0:
                raise ZeroDivisionError("division of affine expression by zero")
            return self * (1.0 / float(other))
        return NotImplemented

    # -- display -------------------------------------------------------------
    def __repr__(self) -> str:
        parts = [f"{c:+g}*{v.name}#{v.uid}" for v, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].uid)]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"

