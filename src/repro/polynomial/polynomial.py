"""Array-backed multivariate polynomials with real coefficients.

The :class:`Polynomial` class is the numeric workhorse of the whole library:
hybrid-system flow maps, Lyapunov certificates, level-set functions and escape
certificates are all instances of it.  Terms are stored as an exponent matrix
``E`` of shape ``(m, n)`` (one row per monomial) paired with a coefficient
vector of shape ``(m,)``, so arithmetic, differentiation and (batched)
evaluation are single NumPy passes instead of per-monomial Python loops.  The
historical ``{Monomial: float}`` mapping remains available through the
:attr:`coefficients` view, which is materialised lazily and cached.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .monomial import Monomial
from .variables import Variable, VariableVector

Number = Union[int, float, np.integer, np.floating]

#: Coefficients with absolute value below this threshold are dropped.
COEFFICIENT_TOLERANCE = 1e-14

_EXPONENT_DTYPE = np.int64


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating))


def _empty_terms(num_variables: int) -> Tuple[np.ndarray, np.ndarray]:
    return (np.zeros((0, num_variables), dtype=_EXPONENT_DTYPE), np.zeros(0))


def _graded_lex_order(exponents: np.ndarray) -> np.ndarray:
    """Sorting permutation matching :meth:`Monomial.sort_key` (degree, then
    descending exponents left-to-right)."""
    degrees = exponents.sum(axis=1)
    keys = np.vstack([(-exponents[:, ::-1]).T, degrees]) if exponents.shape[1] \
        else degrees.reshape(1, -1)
    return np.lexsort(keys)


def group_exponent_rows(exponents: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate exponent rows into graded-lex order.

    Returns ``(unique_rows, inverse)`` where ``unique_rows`` is sorted
    graded-lexicographically and ``inverse[k]`` is the position of input row
    ``k`` in ``unique_rows``.  Shared by term canonicalisation, stacked
    evaluators and the Gram product tables, so the canonical ordering lives in
    exactly one place.
    """
    m, n = exponents.shape
    if m == 0:
        return exponents, np.zeros(0, dtype=np.int64)
    order = _graded_lex_order(exponents)
    sorted_rows = exponents[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    if m > 1:
        new_group[1:] = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1) if n \
            else False
    inverse = np.empty(m, dtype=np.int64)
    inverse[order] = np.cumsum(new_group) - 1
    return sorted_rows[new_group], inverse


def _canonicalize_terms(
    exponents: np.ndarray,
    coefficients: np.ndarray,
    tolerance: float = COEFFICIENT_TOLERANCE,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort rows graded-lexicographically, merge duplicates, drop near-zeros."""
    if exponents.shape[0] == 0:
        return _empty_terms(exponents.shape[1])
    unique_exps, inverse = group_exponent_rows(exponents)
    merged = np.bincount(inverse, weights=coefficients,
                         minlength=unique_exps.shape[0])
    keep = np.abs(merged) > tolerance
    if keep.all():
        return unique_exps, merged
    return unique_exps[keep], merged[keep]


class Polynomial:
    """A real multivariate polynomial ``sum_k c_k * m_k(x)``.

    Parameters
    ----------
    variables:
        The ordered indeterminates.  All monomial exponent tuples are
        interpreted positionally against this vector.
    coefficients:
        Mapping from :class:`Monomial` (or raw exponent tuples) to real
        coefficients.  Near-zero coefficients are dropped.
    """

    __slots__ = ("variables", "_exponents", "_coefficients", "_coeff_view")

    def __init__(
        self,
        variables: Union[VariableVector, Sequence[Variable]],
        coefficients: Optional[Mapping[Union[Monomial, Tuple[int, ...]], Number]] = None,
    ):
        if not isinstance(variables, VariableVector):
            variables = VariableVector(variables)
        self.variables: VariableVector = variables
        n = len(variables)
        if coefficients:
            rows = np.empty((len(coefficients), n), dtype=_EXPONENT_DTYPE)
            values = np.empty(len(coefficients))
            for k, (key, value) in enumerate(coefficients.items()):
                mono = key if isinstance(key, Monomial) else Monomial(tuple(key))
                if mono.num_variables != n:
                    raise ValueError(
                        f"monomial {mono} has {mono.num_variables} variables, expected {n}"
                    )
                rows[k] = mono.exponents
                values[k] = float(value)
            self._exponents, self._coefficients = _canonicalize_terms(rows, values)
        else:
            self._exponents, self._coefficients = _empty_terms(n)
        self._coeff_view: Optional[Dict[Monomial, float]] = None

    @classmethod
    def _from_arrays(
        cls,
        variables: VariableVector,
        exponents: np.ndarray,
        coefficients: np.ndarray,
        canonical: bool = False,
    ) -> "Polynomial":
        """Internal fast constructor from term arrays (bypasses dict parsing)."""
        poly = cls.__new__(cls)
        poly.variables = variables
        if canonical:
            poly._exponents, poly._coefficients = exponents, coefficients
        else:
            poly._exponents, poly._coefficients = _canonicalize_terms(
                exponents, coefficients)
        poly._coeff_view = None
        return poly

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    @property
    def exponent_matrix(self) -> np.ndarray:
        """The ``(m, n)`` integer exponent matrix (one row per term)."""
        return self._exponents

    @property
    def coefficient_array(self) -> np.ndarray:
        """The ``(m,)`` coefficient vector aligned with :attr:`exponent_matrix`."""
        return self._coefficients

    @property
    def coefficients(self) -> Dict[Monomial, float]:
        """The classic ``{Monomial: float}`` view (built lazily, cached)."""
        if self._coeff_view is None:
            self._coeff_view = {
                Monomial(tuple(int(e) for e in row)): float(c)
                for row, c in zip(self._exponents, self._coefficients)
            }
        return self._coeff_view

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, variables: Union[VariableVector, Sequence[Variable]]) -> "Polynomial":
        if not isinstance(variables, VariableVector):
            variables = VariableVector(variables)
        return cls._from_arrays(variables, *_empty_terms(len(variables)), canonical=True)

    @classmethod
    def constant(
        cls, variables: Union[VariableVector, Sequence[Variable]], value: Number
    ) -> "Polynomial":
        if not isinstance(variables, VariableVector):
            variables = VariableVector(variables)
        n = len(variables)
        fval = float(value)
        if abs(fval) <= COEFFICIENT_TOLERANCE:
            return cls.zero(variables)
        return cls._from_arrays(
            variables,
            np.zeros((1, n), dtype=_EXPONENT_DTYPE),
            np.array([fval]),
            canonical=True,
        )

    @classmethod
    def from_variable(cls, variable: Variable,
                      variables: Optional[VariableVector] = None) -> "Polynomial":
        """The degree-1 polynomial equal to ``variable``."""
        if variables is None:
            variables = VariableVector([variable])
        index = variables.index(variable)
        exps = np.zeros((1, len(variables)), dtype=_EXPONENT_DTYPE)
        exps[0, index] = 1
        return cls._from_arrays(variables, exps, np.array([1.0]), canonical=True)

    @classmethod
    def monomial(cls, variables: VariableVector, exponents: Sequence[int],
                 coefficient: Number = 1.0) -> "Polynomial":
        return cls(variables, {Monomial(tuple(exponents)): coefficient})

    @classmethod
    def from_coefficient_vector(
        cls,
        variables: VariableVector,
        basis: Sequence[Monomial],
        vector: Sequence[Number],
    ) -> "Polynomial":
        """Build ``sum_k vector[k] * basis[k]``."""
        if len(basis) != len(vector):
            raise ValueError("basis and coefficient vector lengths differ")
        exps = np.array([m.exponents for m in basis], dtype=_EXPONENT_DTYPE).reshape(
            len(basis), len(variables))
        return cls._from_arrays(variables, exps, np.asarray(vector, dtype=float).copy())

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def degree(self) -> int:
        if self._exponents.shape[0] == 0:
            return 0
        return int(self._exponents.sum(axis=1).max())

    def is_zero(self, tolerance: float = COEFFICIENT_TOLERANCE) -> bool:
        if self._coefficients.size == 0:
            return True
        return bool(np.all(np.abs(self._coefficients) <= tolerance))

    def is_constant(self) -> bool:
        return self.degree == 0

    def constant_term(self) -> float:
        if self._exponents.shape[0] == 0:
            return 0.0
        mask = self._exponents.sum(axis=1) == 0
        if not mask.any():
            return 0.0
        return float(self._coefficients[mask][0])

    def coefficient(self, monomial: Union[Monomial, Tuple[int, ...]]) -> float:
        if not isinstance(monomial, Monomial):
            monomial = Monomial(tuple(monomial))
        return self.coefficients.get(monomial, 0.0)

    def monomials(self) -> Tuple[Monomial, ...]:
        # Terms are already stored in graded-lex order.
        return tuple(self.coefficients)

    def max_abs_coefficient(self) -> float:
        if self._coefficients.size == 0:
            return 0.0
        return float(np.abs(self._coefficients).max())

    def __len__(self) -> int:
        return self._coefficients.shape[0]

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def with_variables(self, variables: VariableVector) -> "Polynomial":
        """Re-express this polynomial over a superset variable vector."""
        if variables == self.variables:
            return self
        mapping = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"target variable vector does not contain {v}")
            mapping.append(variables.index(v))
        new_exps = np.zeros((self._exponents.shape[0], len(variables)),
                            dtype=_EXPONENT_DTYPE)
        if mapping:
            new_exps[:, mapping] = self._exponents
        return Polynomial._from_arrays(variables, new_exps, self._coefficients.copy())

    def _coerce(self, other: object) -> Optional["Polynomial"]:
        if isinstance(other, Polynomial):
            if other.variables == self.variables:
                return other
            merged = self.variables.union(other.variables)
            if merged == self.variables:
                return other.with_variables(self.variables)
            return other.with_variables(merged)
        if isinstance(other, Variable):
            if other in self.variables:
                return Polynomial.from_variable(other, self.variables)
            merged = self.variables.union(VariableVector([other]))
            return Polynomial.from_variable(other, merged)
        if _is_number(other):
            return Polynomial.constant(self.variables, other)
        return None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: object) -> "Polynomial":
        other_poly = self._coerce(other)
        if other_poly is None:
            return NotImplemented
        left = self if other_poly.variables == self.variables else self.with_variables(other_poly.variables)
        return Polynomial._from_arrays(
            left.variables,
            np.vstack([left._exponents, other_poly._exponents]),
            np.concatenate([left._coefficients, other_poly._coefficients]),
        )

    def __radd__(self, other: object) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_arrays(
            self.variables, self._exponents, -self._coefficients, canonical=True)

    def __sub__(self, other: object) -> "Polynomial":
        other_poly = self._coerce(other)
        if other_poly is None:
            return NotImplemented
        return self.__add__(-other_poly)

    def __rsub__(self, other: object) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "Polynomial":
        if _is_number(other):
            scale = float(other)
            scaled = self._coefficients * scale
            keep = np.abs(scaled) > COEFFICIENT_TOLERANCE
            if keep.all():
                return Polynomial._from_arrays(
                    self.variables, self._exponents, scaled, canonical=True)
            return Polynomial._from_arrays(
                self.variables, self._exponents[keep], scaled[keep], canonical=True)
        other_poly = self._coerce(other)
        if other_poly is None:
            return NotImplemented
        left = self if other_poly.variables == self.variables else self.with_variables(other_poly.variables)
        m1 = left._exponents.shape[0]
        m2 = other_poly._exponents.shape[0]
        if m1 == 0 or m2 == 0:
            return Polynomial.zero(left.variables)
        prod_exps = (left._exponents[:, None, :] + other_poly._exponents[None, :, :]
                     ).reshape(m1 * m2, -1)
        prod_coeffs = np.multiply.outer(left._coefficients,
                                        other_poly._coefficients).ravel()
        return Polynomial._from_arrays(left.variables, prod_exps, prod_coeffs)

    def __rmul__(self, other: object) -> "Polynomial":
        return self.__mul__(other)

    def __truediv__(self, other: object) -> "Polynomial":
        if _is_number(other):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (1.0 / float(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, (int, np.integer)) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.variables, 1.0)
        base = self
        e = int(exponent)
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        other_poly = self._coerce(other)
        if other_poly is None:
            return NotImplemented
        return (self - other_poly).is_zero()

    def __hash__(self) -> int:
        items = tuple(sorted(((m.exponents, round(c, 12)) for m, c in self.coefficients.items())))
        return hash((self.variables, items))

    def almost_equal(self, other: "Polynomial", tolerance: float = 1e-9) -> bool:
        diff = self - other
        return diff.max_abs_coefficient() <= tolerance

    # ------------------------------------------------------------------
    # Calculus
    # ------------------------------------------------------------------
    def differentiate(self, variable: Union[Variable, int]) -> "Polynomial":
        index = variable if isinstance(variable, int) else self.variables.index(variable)
        powers = self._exponents[:, index]
        keep = powers > 0
        if not keep.any():
            return Polynomial.zero(self.variables)
        new_exps = self._exponents[keep].copy()
        new_exps[:, index] -= 1
        new_coeffs = self._coefficients[keep] * powers[keep]
        return Polynomial._from_arrays(self.variables, new_exps, new_coeffs)

    def gradient(self) -> Tuple["Polynomial", ...]:
        return tuple(self.differentiate(i) for i in range(self.num_variables))

    def hessian(self) -> Tuple[Tuple["Polynomial", ...], ...]:
        grad = self.gradient()
        return tuple(tuple(g.differentiate(j) for j in range(self.num_variables)) for g in grad)

    def lie_derivative(self, vector_field: Sequence["Polynomial"]) -> "Polynomial":
        """``∇p · f`` along a polynomial vector field ``f``."""
        if len(vector_field) != self.num_variables:
            raise ValueError(
                f"vector field has {len(vector_field)} components, expected {self.num_variables}"
            )
        result = Polynomial.zero(self.variables)
        for i, component in enumerate(vector_field):
            partial = self.differentiate(i)
            if partial.is_zero():
                continue
            result = result + partial * component
        return result

    # ------------------------------------------------------------------
    # Evaluation and substitution
    # ------------------------------------------------------------------
    def __call__(self, *args, **kwargs) -> float:
        if kwargs and not args:
            point = [kwargs[v.name] for v in self.variables]
            return self.evaluate(point)
        if len(args) == 1 and isinstance(args[0], (list, tuple, np.ndarray)):
            return self.evaluate(args[0])
        return self.evaluate(args)

    def evaluate(self, point: Sequence[float]) -> float:
        point = np.asarray(point, dtype=float).ravel()
        if point.shape[0] != self.num_variables:
            raise ValueError(
                f"point has {point.shape[0]} coordinates, polynomial expects {self.num_variables}"
            )
        if self._coefficients.size == 0:
            return 0.0
        return float(np.prod(point ** self._exponents, axis=1) @ self._coefficients)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an ``(N, n)`` batch of points in one vectorised pass."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.shape[1] != self.num_variables:
            raise ValueError("point dimension mismatch")
        if self._coefficients.size == 0:
            return np.zeros(points.shape[0])
        powers = np.prod(points[:, None, :] ** self._exponents[None, :, :], axis=2)
        return powers @ self._coefficients

    def substitute(self, substitutions: Mapping[Variable, Union[Number, "Polynomial"]]) -> "Polynomial":
        """Substitute variables by numbers or polynomials (composition)."""
        # Express every substitution target over a common variable vector.
        remaining = [v for v in self.variables if v not in substitutions]
        poly_subs: Dict[int, Tuple[str, object]] = {}
        for var, value in substitutions.items():
            if var not in self.variables:
                continue
            idx = self.variables.index(var)
            if _is_number(value):
                poly_subs[idx] = ("const", float(value))
            else:
                poly_subs[idx] = ("poly", value)

        # Determine the output variable vector: all remaining original vars plus
        # any variables introduced by polynomial substitutions.
        out_vars = VariableVector(remaining) if remaining else VariableVector([])
        for idx, entry in poly_subs.items():
            kind, value = entry
            if kind == "poly":
                out_vars = out_vars.union(value.variables)
        if len(out_vars) == 0:
            # Fully numeric substitution: keep one dummy variable-free polynomial by
            # evaluating directly.
            point = []
            for i, v in enumerate(self.variables):
                entry = poly_subs.get(i)
                if entry is None or entry[0] != "const":
                    raise ValueError("substitution does not cover all variables with numbers")
                point.append(entry[1])
            # Represent the result as a constant polynomial over a fresh variable-less vector.
            out_vars = VariableVector([])
            return Polynomial(out_vars, {Monomial(()): self.evaluate(point)})

        result = Polynomial.zero(out_vars)
        # Pre-build per-variable replacement polynomials over out_vars.
        replacements: Dict[int, Polynomial] = {}
        for i, v in enumerate(self.variables):
            entry = poly_subs.get(i)
            if entry is None:
                replacements[i] = Polynomial.from_variable(v, out_vars)
            elif entry[0] == "const":
                replacements[i] = Polynomial.constant(out_vars, entry[1])
            else:
                replacements[i] = entry[1].with_variables(out_vars)

        for mono, coeff in self.coefficients.items():
            term = Polynomial.constant(out_vars, coeff)
            for i, exp in enumerate(mono.exponents):
                if exp:
                    term = term * (replacements[i] ** exp)
            result = result + term
        return result

    def compose(self, mapping: Sequence["Polynomial"]) -> "Polynomial":
        """Compose ``p(g_1(x), ..., g_n(x))`` where ``mapping[i]`` replaces variable i."""
        if len(mapping) != self.num_variables:
            raise ValueError("composition mapping must provide one polynomial per variable")
        return self.substitute(dict(zip(self.variables, mapping)))

    def shift(self, offset: Sequence[float]) -> "Polynomial":
        """Return ``p(x + offset)`` as a polynomial in ``x``."""
        if len(offset) != self.num_variables:
            raise ValueError("offset dimension mismatch")
        mapping = [
            Polynomial.from_variable(v, self.variables) + float(offset[i])
            for i, v in enumerate(self.variables)
        ]
        return self.compose(mapping)

    def scale_variables(self, scales: Sequence[float]) -> "Polynomial":
        """Return ``p(S x)`` where ``S = diag(scales)``."""
        if len(scales) != self.num_variables:
            raise ValueError("scale dimension mismatch")
        mapping = [
            Polynomial.from_variable(v, self.variables) * float(scales[i])
            for i, v in enumerate(self.variables)
        ]
        return self.compose(mapping)

    # ------------------------------------------------------------------
    # Vector form (for solvers)
    # ------------------------------------------------------------------
    def coefficient_vector(self, basis: Sequence[Monomial]) -> np.ndarray:
        """Coefficients against an explicit monomial basis.

        Raises if the polynomial has support outside the basis.
        """
        index = {m: i for i, m in enumerate(basis)}
        vec = np.zeros(len(basis))
        for mono, coeff in self.coefficients.items():
            if mono not in index:
                raise ValueError(f"monomial {mono} not contained in the provided basis")
            vec[index[mono]] = coeff
        return vec

    def truncate(self, tolerance: float) -> "Polynomial":
        """Drop coefficients with magnitude below ``tolerance``."""
        keep = np.abs(self._coefficients) > tolerance
        return Polynomial._from_arrays(
            self.variables, self._exponents[keep], self._coefficients[keep],
            canonical=True)

    # ------------------------------------------------------------------
    # Quadratic-form helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_quadratic_form(cls, variables: VariableVector, matrix: np.ndarray) -> "Polynomial":
        """Build ``x^T M x`` (matrix is symmetrised)."""
        matrix = np.asarray(matrix, dtype=float)
        n = len(variables)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} does not match {n} variables")
        matrix = 0.5 * (matrix + matrix.T)
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        exps = np.zeros((n * n, n), dtype=_EXPONENT_DTYPE)
        flat = np.arange(n * n)
        np.add.at(exps, (flat, ii.ravel()), 1)
        np.add.at(exps, (flat, jj.ravel()), 1)
        return cls._from_arrays(variables, exps, matrix.ravel().copy())

    @classmethod
    def from_affine(cls, variables: VariableVector, linear: Sequence[float],
                    constant: Number = 0.0) -> "Polynomial":
        """Build ``linear · x + constant``."""
        n = len(variables)
        if len(linear) != n:
            raise ValueError("linear coefficient dimension mismatch")
        exps = np.vstack([np.zeros((1, n), dtype=_EXPONENT_DTYPE),
                          np.eye(n, dtype=_EXPONENT_DTYPE)])
        coeffs = np.concatenate([[float(constant)], np.asarray(linear, dtype=float)])
        return cls._from_arrays(variables, exps, coeffs)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"

    def to_string(self, precision: int = 6) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for mono in self.monomials():
            coeff = self.coefficients[mono]
            mono_str = mono.to_string(self.variables)
            if mono.is_constant():
                term = f"{coeff:.{precision}g}"
            elif math.isclose(coeff, 1.0):
                term = mono_str
            elif math.isclose(coeff, -1.0):
                term = f"-{mono_str}"
            else:
                term = f"{coeff:.{precision}g}*{mono_str}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


class PolynomialStack:
    """Several polynomials over shared variables, evaluated in one array pass.

    The stack merges the exponent rows of all component polynomials into one
    ``(M, n)`` matrix and a ``(k, M)`` coefficient matrix, so evaluating a
    whole polynomial vector field (or a set of level-set functions) at ``N``
    points costs a single ``(N, M) @ (M, k)`` product instead of ``k``
    separate dictionary walks.
    """

    __slots__ = ("variables", "_exponents", "_coeff_matrix")

    def __init__(self, polynomials: Sequence[Polynomial],
                 variables: Optional[VariableVector] = None):
        polynomials = list(polynomials)
        if not polynomials:
            raise ValueError("PolynomialStack needs at least one polynomial")
        if variables is None:
            variables = polynomials[0].variables
            for poly in polynomials[1:]:
                variables = variables.union(poly.variables)
        aligned = [p.with_variables(variables) for p in polynomials]
        self.variables = variables
        n = len(variables)
        stacked = np.vstack([p.exponent_matrix for p in aligned]) if aligned \
            else np.zeros((0, n), dtype=_EXPONENT_DTYPE)
        if stacked.shape[0] == 0:
            self._exponents = np.zeros((1, n), dtype=_EXPONENT_DTYPE)
            self._coeff_matrix = np.zeros((len(aligned), 1))
            return
        unique, inverse = group_exponent_rows(stacked)
        self._exponents = unique
        self._coeff_matrix = np.zeros((len(aligned), unique.shape[0]))
        offset = 0
        for k, poly in enumerate(aligned):
            count = poly.exponent_matrix.shape[0]
            self._coeff_matrix[k, inverse[offset:offset + count]] = \
                poly.coefficient_array
            offset += count

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        """Values of all stacked polynomials at one point, shape ``(k,)``."""
        point = np.asarray(point, dtype=float).ravel()
        if point.shape[0] != len(self.variables):
            raise ValueError(
                f"point has {point.shape[0]} coordinates, stack expects {len(self.variables)}"
            )
        return self._coeff_matrix @ np.prod(point ** self._exponents, axis=1)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Values at an ``(N, n)`` batch of points, shape ``(N, k)``."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.shape[1] != len(self.variables):
            raise ValueError("point dimension mismatch")
        powers = np.prod(points[:, None, :] ** self._exponents[None, :, :], axis=2)
        return powers @ self._coeff_matrix.T


def polynomial_vector(variables: VariableVector,
                      rows: Iterable[Iterable[float]],
                      constants: Optional[Iterable[float]] = None) -> Tuple[Polynomial, ...]:
    """Build an affine polynomial vector field ``A x + b`` row by row."""
    rows = [list(row) for row in rows]
    consts = list(constants) if constants is not None else [0.0] * len(rows)
    if len(consts) != len(rows):
        raise ValueError("constants length must match number of rows")
    return tuple(
        Polynomial.from_affine(variables, row, const) for row, const in zip(rows, consts)
    )
