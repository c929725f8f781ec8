"""Symbolic variables for multivariate polynomials.

A :class:`Variable` is an immutable named symbol.  Polynomials are expressed
over an ordered tuple of variables (a :class:`VariableVector`), and monomials
store exponents positionally with respect to that ordering, so variable
identity (by name) is the only piece of global state needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple


@dataclass(frozen=True, order=True)
class Variable:
    """An immutable, named polynomial indeterminate.

    Two variables with the same name compare equal; ordering is lexicographic
    by name so that variable tuples have a canonical order.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("variable name must be a non-empty string")

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name

    # The polynomial module gives Variables arithmetic by converting them to
    # Polynomial instances lazily (to avoid an import cycle at module load).
    def _as_polynomial(self):
        from .polynomial import Polynomial

        return Polynomial.from_variable(self)

    def __add__(self, other):
        return self._as_polynomial() + other

    def __radd__(self, other):
        return self._as_polynomial() + other

    def __sub__(self, other):
        return self._as_polynomial() - other

    def __rsub__(self, other):
        return (-self._as_polynomial()) + other

    def __mul__(self, other):
        return self._as_polynomial() * other

    def __rmul__(self, other):
        return self._as_polynomial() * other

    def __neg__(self):
        return -self._as_polynomial()

    def __pow__(self, exponent: int):
        return self._as_polynomial() ** exponent


class VariableVector(Sequence[Variable]):
    """An ordered, duplicate-free tuple of :class:`Variable` objects.

    The vector defines the positional meaning of monomial exponent tuples.
    """

    __slots__ = ("_variables", "_index")

    def __init__(self, variables: Iterable[Variable]):
        vars_tuple = tuple(variables)
        names = [v.name for v in vars_tuple]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in vector: {names}")
        self._variables: Tuple[Variable, ...] = vars_tuple
        self._index = {v: i for i, v in enumerate(vars_tuple)}

    def index(self, variable: Variable) -> int:  # type: ignore[override]
        try:
            return self._index[variable]
        except KeyError as exc:
            raise KeyError(f"{variable} is not in this variable vector") from exc

    def __contains__(self, item: object) -> bool:
        return item in self._index

    def __len__(self) -> int:
        return len(self._variables)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._variables)

    def __getitem__(self, item):
        result = self._variables[item]
        if isinstance(item, slice):
            return VariableVector(result)
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VariableVector):
            return self._variables == other._variables
        if isinstance(other, tuple):
            return self._variables == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._variables)

    def __repr__(self) -> str:
        return f"VariableVector({', '.join(v.name for v in self._variables)})"

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self._variables)

    def union(self, other: "VariableVector") -> "VariableVector":
        """Ordered union: self's variables followed by new ones from ``other``."""
        merged = list(self._variables)
        for v in other:
            if v not in self._index:
                merged.append(v)
        return VariableVector(merged)


def make_variables(*names: str) -> Tuple[Variable, ...]:
    """Convenience constructor: ``x, y = make_variables("x", "y")``."""
    return tuple(Variable(name) for name in names)
