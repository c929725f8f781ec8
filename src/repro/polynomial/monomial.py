"""Monomials over a fixed variable ordering.

A monomial is stored as a tuple of non-negative integer exponents whose
positions refer to a :class:`~repro.polynomial.variables.VariableVector`.
Monomials are value objects: hashable, comparable under graded lexicographic
order, and support multiplication / division / evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .variables import Variable, VariableVector


@dataclass(frozen=True)
class Monomial:
    """A power product ``x1^e1 * x2^e2 * ... * xn^en``.

    Only the exponent tuple is stored; the meaning of each position is given
    by the variable vector of the enclosing polynomial.
    """

    exponents: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any((not isinstance(e, (int, np.integer))) or e < 0 for e in self.exponents):
            raise ValueError(f"exponents must be non-negative integers, got {self.exponents}")
        exponents = tuple(int(e) for e in self.exponents)
        object.__setattr__(self, "exponents", exponents)
        # Hash and sort key are recomputed millions of times by the SOS
        # compiler's dict lookups and support orderings — cache both.
        object.__setattr__(self, "_hash", hash(exponents))
        object.__setattr__(self, "_sort_key",
                           (sum(exponents), tuple(-e for e in exponents)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Monomial):
            return self.exponents == other.exponents
        return NotImplemented

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, num_variables: int) -> "Monomial":
        """The monomial ``1`` in ``num_variables`` variables (cached)."""
        return constant_monomial(num_variables)

    @classmethod
    def unit(cls, index: int, num_variables: int, power: int = 1) -> "Monomial":
        """The monomial ``x_index ** power`` (cached)."""
        return unit_monomial(index, num_variables, power)

    # -- basic queries -----------------------------------------------------
    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def num_variables(self) -> int:
        return len(self.exponents)

    def is_constant(self) -> bool:
        return self.degree == 0

    # -- algebra -----------------------------------------------------------
    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if len(self.exponents) != len(other.exponents):
            raise ValueError("cannot multiply monomials over different variable counts")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def differentiate(self, index: int) -> Tuple[float, "Monomial"]:
        """Return ``(coefficient, monomial)`` of d/dx_index applied to self."""
        e = self.exponents[index]
        if e == 0:
            return 0.0, Monomial.constant(self.num_variables)
        exps = list(self.exponents)
        exps[index] = e - 1
        return float(e), Monomial(tuple(exps))

    # -- evaluation --------------------------------------------------------
    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) != len(self.exponents):
            raise ValueError(
                f"point has {len(point)} coordinates, monomial expects {len(self.exponents)}"
            )
        value = 1.0
        for coord, exp in zip(point, self.exponents):
            if exp:
                value *= float(coord) ** exp
        return value

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorised evaluation on an ``(m, n)`` array of points."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.shape[1] != len(self.exponents):
            raise ValueError("point dimension mismatch")
        result = np.ones(points.shape[0])
        for j, exp in enumerate(self.exponents):
            if exp:
                result = result * points[:, j] ** exp
        return result

    # -- ordering / display ------------------------------------------------
    def sort_key(self) -> Tuple[int, Tuple[int, ...]]:
        """Graded lexicographic key: total degree first, then exponents."""
        return self._sort_key  # type: ignore[attr-defined]

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def to_string(self, variables: Optional[VariableVector] = None) -> str:
        if self.is_constant():
            return "1"
        parts = []
        for i, exp in enumerate(self.exponents):
            if exp == 0:
                continue
            name = variables[i].name if variables is not None else f"x{i}"
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial{self.exponents}"

    def as_dict(self, variables: VariableVector) -> Dict[Variable, int]:
        return {variables[i]: e for i, e in enumerate(self.exponents) if e > 0}


@lru_cache(maxsize=4096)
def constant_monomial(num_variables: int) -> Monomial:
    """Cached ``Monomial.constant`` (the constant monomial is requested on
    nearly every coefficient lookup)."""
    return Monomial((0,) * num_variables)


@lru_cache(maxsize=65536)
def interned_monomial(exponents: Tuple[int, ...]) -> Monomial:
    """Cached ``Monomial(exponents)`` for exponent rows read back from term
    arrays (the SOS layer rebuilds the same few thousand monomials over and
    over)."""
    return Monomial(exponents)


@lru_cache(maxsize=4096)
def unit_monomial(index: int, num_variables: int, power: int = 1) -> Monomial:
    """Cached ``Monomial.unit``."""
    if not 0 <= index < num_variables:
        raise IndexError(f"variable index {index} out of range for {num_variables} variables")
    exps = [0] * num_variables
    exps[index] = power
    return Monomial(tuple(exps))


def monomial_product_index(
    basis: Sequence[Monomial],
) -> Dict[Tuple[int, int], Monomial]:
    """Pre-compute ``basis[i] * basis[j]`` for all ``i <= j``.

    Used by the Gram-matrix machinery: an SOS polynomial ``z(x)^T Q z(x)``
    expands as ``sum_{i,j} Q_ij basis[i] basis[j]``.
    """
    products: Dict[Tuple[int, int], Monomial] = {}
    for i, mi in enumerate(basis):
        for j in range(i, len(basis)):
            products[(i, j)] = mi * basis[j]
    return products


@lru_cache(maxsize=1024)
def basis_exponent_matrix(basis: Tuple[Monomial, ...]) -> np.ndarray:
    """The stacked ``(b, n)`` exponent matrix of a monomial basis (read-only).

    Cached because the SOS layer repeatedly converts the same Gram bases to
    arrays when assembling product-index tables.
    """
    if not basis:
        return np.zeros((0, 0), dtype=np.int64)
    matrix = np.array([m.exponents for m in basis], dtype=np.int64)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=1024)
def exponent_matrix_up_to_degree(num_variables: int, max_degree: int,
                                 min_degree: int = 0) -> np.ndarray:
    """All exponent tuples with total degree in ``[min_degree, max_degree]``
    as a read-only ``(count, num_variables)`` array in graded-lex order.

    Built degree by degree with a vectorised recurrence instead of a Python
    composition generator; cached because every SOS constraint asks for the
    same handful of (n, d) combinations.
    """
    if num_variables == 0:
        if min_degree <= 0 <= max_degree:
            out = np.zeros((1, 0), dtype=np.int64)
        else:
            out = np.zeros((0, 0), dtype=np.int64)
        out.setflags(write=False)
        return out

    def _exact_degree(degree: int) -> np.ndarray:
        # Rows of non-negative integer solutions of e_1 + ... + e_n = degree,
        # ordered with e_1 descending (graded-lex within the degree level).
        if num_variables == 1:
            return np.array([[degree]], dtype=np.int64)
        blocks = []
        for first in range(degree, -1, -1):
            rest = _exact_by_degree[degree - first] if num_variables >= 2 else None
            block = np.empty((rest.shape[0], num_variables), dtype=np.int64)
            block[:, 0] = first
            block[:, 1:] = rest
            blocks.append(block)
        return np.vstack(blocks)

    # Tail tables for n-1 variables, one per degree, computed recursively via
    # the cache (the recursion depth is the variable count, which is tiny).
    _exact_by_degree = {}
    if num_variables >= 2:
        tail = exponent_matrix_up_to_degree(num_variables - 1, max_degree, 0)
        tail_degrees = tail.sum(axis=1)
        for degree in range(max_degree + 1):
            _exact_by_degree[degree] = tail[tail_degrees == degree]

    levels = [_exact_degree(d) for d in range(min_degree, max_degree + 1)]
    out = np.vstack(levels) if levels else np.zeros((0, num_variables), dtype=np.int64)
    out.setflags(write=False)
    return out


def exponents_up_to_degree(num_variables: int, max_degree: int,
                           min_degree: int = 0) -> Iterable[Tuple[int, ...]]:
    """Yield all exponent tuples with ``min_degree <= total degree <= max_degree``.

    Ordered by graded lexicographic order (constant first).  Backed by the
    cached :func:`exponent_matrix_up_to_degree` table.
    """
    matrix = exponent_matrix_up_to_degree(num_variables, max_degree, min_degree)
    for row in matrix:
        yield tuple(int(e) for e in row)
