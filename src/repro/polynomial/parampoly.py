"""Array-backed polynomials whose coefficients are affine in decision variables.

A :class:`ParametricPolynomial` represents ``p(x; d) = sum_k c_k(d) m_k(x)``
where each coefficient ``c_k(d) = a_k · d + b_k`` is affine in the decision
variables ``d``.  These objects are the terms of SOS constraints: unknown
Lyapunov certificates, unknown multipliers and unknown level-set polynomials
are all parametric polynomials; products with *numeric* polynomials keep them
affine in ``d``.

Terms are stored like :class:`~repro.polynomial.polynomial.Polynomial`'s: an
``(m, n)`` exponent matrix in graded-lex order, a dense ``(m, D)`` matrix of
decision-variable coefficients (columns are the polynomial's own decision
variables, sorted by ``uid``) and an ``(m,)`` constant column.  Arithmetic is
one NumPy pass per operation.  Products and sums accumulate every coefficient
in a fixed order (numeric term outer, symbolic term inner, starting from
``0.0``), so the SOS programs assembled from them are reproducible bit for
bit.  The ``{Monomial: LinExpr}`` mapping remains available through the lazily
built :attr:`~ParametricPolynomial.coefficients` view.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .linexpr import DecisionVariable, LinExpr, _is_number
from .monomial import Monomial, basis_exponent_matrix, interned_monomial
from .polynomial import (COEFFICIENT_TOLERANCE, Polynomial, _graded_lex_order,
                         group_exponent_rows)
from .variables import Variable, VariableVector

PolyLike = Union["ParametricPolynomial", Polynomial, Variable, float, int]

DecisionTuple = Tuple[DecisionVariable, ...]


def _uids(dvars: DecisionTuple) -> np.ndarray:
    return np.fromiter((d.uid for d in dvars), dtype=np.int64, count=len(dvars))


def _union_dvars(left: DecisionTuple, right: DecisionTuple
                 ) -> Tuple[DecisionTuple, np.ndarray, np.ndarray]:
    """The uid-sorted union of two uid-sorted tuples plus both column maps."""
    if left == right:
        cols = np.arange(len(left))
        return left, cols, cols
    merged = {d.uid: d for d in left}
    merged.update((d.uid, d) for d in right)
    union = tuple(merged[uid] for uid in sorted(merged))
    union_uids = _uids(union)
    return (union, np.searchsorted(union_uids, _uids(left)),
            np.searchsorted(union_uids, _uids(right)))


class ParametricPolynomial:
    """A polynomial in ``x`` with affine-in-decision-variable coefficients."""

    __slots__ = ("variables", "_exponents", "_dvars", "_matrix", "_constants",
                 "_coeff_view", "_monomials")

    def __init__(self, variables: VariableVector,
                 coefficients: Optional[Mapping[Monomial, LinExpr]] = None):
        if not isinstance(variables, VariableVector):
            variables = VariableVector(variables)
        n = len(variables)
        exprs = {}
        for mono, expr in (coefficients or {}).items():
            if mono.num_variables != n:
                raise ValueError(f"monomial {mono} incompatible with {n} variables")
            exprs[mono] = LinExpr.coerce(expr)
        dvars = {var.uid: var for expr in exprs.values() for var in expr.coeffs}
        dvars = tuple(dvars[uid] for uid in sorted(dvars))
        column = {var: j for j, var in enumerate(dvars)}
        exps = np.zeros((len(exprs), n), dtype=np.int64)
        matrix = np.zeros((len(exprs), len(dvars)))
        constants = np.zeros(len(exprs))
        for k, (mono, expr) in enumerate(exprs.items()):
            exps[k] = mono.exponents
            constants[k] = expr.constant
            for var, coeff in expr.coeffs.items():
                matrix[k, column[var]] = coeff
        self._set(variables, exps, dvars, matrix, constants)

    def _set(self, variables: VariableVector, exponents: np.ndarray,
             dvars: DecisionTuple, matrix: np.ndarray, constants: np.ndarray,
             ordered: bool = False) -> None:
        """Store unique-row term arrays, dropping zero terms and unused columns.

        A term stays iff it has a nonzero decision coefficient or a nonzero
        constant; a decision variable stays iff some term uses it.
        """
        used = matrix != 0.0
        keep = used.any(axis=1) | (constants != 0.0)
        if not keep.all():
            exponents, matrix, constants = exponents[keep], matrix[keep], constants[keep]
            used = used[keep]
        columns = used.any(axis=0)
        if not columns.all():
            matrix = matrix[:, columns]
            dvars = tuple(d for d, c in zip(dvars, columns) if c)
        if not ordered and exponents.shape[0] > 1:
            order = _graded_lex_order(exponents)
            exponents, matrix, constants = exponents[order], matrix[order], constants[order]
        self.variables = variables
        self._exponents = exponents
        self._dvars = dvars
        self._matrix = matrix
        self._constants = constants
        self._coeff_view: Optional[Dict[Monomial, LinExpr]] = None
        self._monomials: Optional[Tuple[Monomial, ...]] = None

    @classmethod
    def _from_arrays(cls, variables: VariableVector, exponents: np.ndarray,
                     dvars: DecisionTuple, matrix: np.ndarray,
                     constants: np.ndarray, ordered: bool = False
                     ) -> "ParametricPolynomial":
        """Internal fast constructor from unique-row term arrays."""
        poly = cls.__new__(cls)
        poly._set(variables, exponents, dvars, matrix, constants, ordered)
        return poly

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    @property
    def exponent_matrix(self) -> np.ndarray:
        """The ``(m, n)`` exponent matrix, one graded-lex sorted row per term."""
        return self._exponents

    @property
    def coefficient_matrix(self) -> np.ndarray:
        """The ``(m, D)`` decision coefficients against :meth:`decision_variables`."""
        return self._matrix

    @property
    def constant_array(self) -> np.ndarray:
        """The ``(m,)`` decision-free part of every coefficient."""
        return self._constants

    @property
    def coefficients(self) -> Dict[Monomial, LinExpr]:
        """The classic ``{Monomial: LinExpr}`` view (built lazily, cached)."""
        if self._coeff_view is None:
            self._coeff_view = {
                mono: LinExpr({d: a for d, a in zip(self._dvars, row) if a != 0.0},
                              const)
                for mono, row, const in zip(self.monomials(), self._matrix.tolist(),
                                            self._constants.tolist())
            }
        return self._coeff_view

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, variables: VariableVector) -> "ParametricPolynomial":
        return cls(variables, {})

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "ParametricPolynomial":
        return cls._from_arrays(poly.variables, poly.exponent_matrix, (),
                                np.zeros((len(poly), 0)), poly.coefficient_array,
                                ordered=True)

    @classmethod
    def from_basis(cls, variables: VariableVector, basis: Sequence[Monomial],
                   decision_variables: Sequence[DecisionVariable]) -> "ParametricPolynomial":
        """``sum_k d_k * basis[k]`` — a fully free polynomial template."""
        size = len(basis)
        if size != len(decision_variables):
            raise ValueError("basis and decision variable counts differ")
        exps = basis_exponent_matrix(tuple(basis)).reshape(size, len(variables))
        order = np.argsort(_uids(tuple(decision_variables)), kind="stable")
        matrix = np.zeros((size, size))
        matrix[order, np.arange(size)] = 1.0
        return cls._from_arrays(variables, exps,
                                tuple(decision_variables[k] for k in order),
                                matrix, np.zeros(size))

    @staticmethod
    def coerce(value: PolyLike,
               variables: Optional[VariableVector] = None) -> "ParametricPolynomial":
        if isinstance(value, ParametricPolynomial):
            return value
        if isinstance(value, Polynomial):
            return ParametricPolynomial.from_polynomial(value)
        if isinstance(value, Variable):
            if variables is None or value not in variables:
                variables = VariableVector([value]) if variables is None else variables.union(
                    VariableVector([value]))
            return ParametricPolynomial.from_polynomial(
                Polynomial.from_variable(value, variables))
        if _is_number(value) or isinstance(value, (LinExpr, DecisionVariable)):
            if variables is None:
                variables = VariableVector([])
            return ParametricPolynomial(
                variables, {Monomial.constant(len(variables)): LinExpr.coerce(value)})
        raise TypeError(f"cannot interpret {value!r} as a parametric polynomial")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        if self._exponents.shape[0] == 0:
            return 0
        return int(self._exponents.sum(axis=1).max())

    def monomials(self) -> Tuple[Monomial, ...]:
        """The support in graded-lex order (cached)."""
        if self._monomials is None:
            self._monomials = tuple(interned_monomial(tuple(row))
                                    for row in self._exponents.tolist())
        return self._monomials

    def decision_variables(self) -> DecisionTuple:
        return self._dvars

    def coefficient(self, monomial: Monomial) -> LinExpr:
        return self.coefficients.get(monomial, LinExpr.from_constant(0.0))

    def is_numeric(self) -> bool:
        return not self._dvars

    # ------------------------------------------------------------------
    # Variable handling
    # ------------------------------------------------------------------
    def with_variables(self, variables: VariableVector) -> "ParametricPolynomial":
        if variables == self.variables:
            return self
        mapping = [variables.index(v) for v in self.variables]
        exps = np.zeros((self._exponents.shape[0], len(variables)), dtype=np.int64)
        if mapping:
            exps[:, mapping] = self._exponents
        # ``0.0 + c`` normalises a ``-0.0`` constant, as summing into a fresh
        # zero coefficient does.
        return ParametricPolynomial._from_arrays(
            variables, exps, self._dvars, self._matrix, 0.0 + self._constants)

    def _align(self, other: "ParametricPolynomial"):
        if self.variables == other.variables:
            return self, other
        merged = self.variables.union(other.variables)
        return self.with_variables(merged), other.with_variables(merged)

    # ------------------------------------------------------------------
    # Arithmetic (affine in decision variables)
    # ------------------------------------------------------------------
    def __add__(self, other: PolyLike) -> "ParametricPolynomial":
        try:
            other_pp = ParametricPolynomial.coerce(other, self.variables)
        except TypeError:
            return NotImplemented
        left, right = self._align(other_pp)
        if not right._exponents.shape[0]:
            return left
        dvars, left_cols, right_cols = _union_dvars(left._dvars, right._dvars)
        exps, inverse = group_exponent_rows(
            np.vstack([left._exponents, right._exponents]))
        split = left._exponents.shape[0]
        rows_left, rows_right = inverse[:split], inverse[split:]
        # Left terms are copied, right terms added: a term only on the right
        # becomes ``0.0 + c``, one on both sides ``c_left + c_right``.
        matrix = np.zeros((exps.shape[0], len(dvars)))
        matrix[rows_left[:, None], left_cols] = left._matrix
        matrix[rows_right[:, None], right_cols] += right._matrix
        constants = np.zeros(exps.shape[0])
        constants[rows_left] = left._constants
        constants[rows_right] += right._constants
        return ParametricPolynomial._from_arrays(
            left.variables, exps, dvars, matrix, constants, ordered=True)

    def __radd__(self, other: PolyLike) -> "ParametricPolynomial":
        return self.__add__(other)

    def __neg__(self) -> "ParametricPolynomial":
        return ParametricPolynomial._from_arrays(
            self.variables, self._exponents, self._dvars, -self._matrix,
            -self._constants, ordered=True)

    def __sub__(self, other: PolyLike) -> "ParametricPolynomial":
        try:
            other_pp = ParametricPolynomial.coerce(other, self.variables)
        except TypeError:
            return NotImplemented
        return self.__add__(-other_pp)

    def __rsub__(self, other: PolyLike) -> "ParametricPolynomial":
        return (-self).__add__(other)

    def _scaled(self, scale: float) -> "ParametricPolynomial":
        return ParametricPolynomial._from_arrays(
            self.variables, self._exponents, self._dvars, self._matrix * scale,
            self._constants * scale, ordered=True)

    def __mul__(self, other) -> "ParametricPolynomial":
        # Scalar (number or affine expression) multiplication.
        if _is_number(other):
            return self._scaled(float(other))
        if isinstance(other, (LinExpr, DecisionVariable)):
            expr = LinExpr.coerce(other)
            if expr.is_constant():
                return self * expr.constant
            if self.is_numeric():
                dvars = expr.variables()
                row = np.array([expr.coeffs[d] for d in dvars])
                return ParametricPolynomial._from_arrays(
                    self.variables, self._exponents, dvars,
                    np.multiply.outer(self._constants, row),
                    self._constants * expr.constant, ordered=True)
            raise ValueError("product would be bilinear in decision variables")
        # Polynomial multiplication: at most one factor may carry decision variables.
        if isinstance(other, Variable):
            other = Polynomial.from_variable(other)
        if isinstance(other, Polynomial):
            other = ParametricPolynomial.from_polynomial(other)
        if isinstance(other, ParametricPolynomial):
            if not (self.is_numeric() or other.is_numeric()):
                raise ValueError(
                    "product of two parametric polynomials with decision variables is bilinear; "
                    "restructure the SOS program so one factor is numeric"
                )
            left, right = self._align(other)
            numeric, symbolic = (left, right) if left.is_numeric() else (right, left)
            return numeric._times_symbolic(symbolic)
        return NotImplemented

    def _times_symbolic(self, symbolic: "ParametricPolynomial") -> "ParametricPolynomial":
        """``self * symbolic`` for a numeric ``self`` over the same variables.

        Every (numeric term, symbolic term) pair lands on the product of the
        two monomials; the contributions to each coefficient are summed in
        pair order, numeric term outer, starting from ``0.0``.
        """
        m1, m2 = self._exponents.shape[0], symbolic._exponents.shape[0]
        dvars = symbolic._dvars
        if not m1 or not m2:
            return ParametricPolynomial.zero(self.variables)
        pair_exps = (self._exponents[:, None, :] + symbolic._exponents[None, :, :]
                     ).reshape(m1 * m2, -1)
        exps, target = group_exponent_rows(pair_exps)
        size, width = exps.shape[0], len(dvars)
        scales = self._constants
        constants = np.bincount(
            target, weights=np.multiply.outer(scales, symbolic._constants).ravel(),
            minlength=size)
        # Only the nonzero decision coefficients contribute; ``np.nonzero``
        # enumerates them term-major, so ``cells`` stays in pair order.
        term, column = np.nonzero(symbolic._matrix)
        values = symbolic._matrix[term, column]
        cells = (target.reshape(m1, m2)[:, term] * width + column).ravel()
        # (``bincount`` of an empty input is integer-typed: hence the cast.)
        matrix = np.bincount(cells, weights=np.multiply.outer(scales, values).ravel(),
                             minlength=size * width).astype(float, copy=False)
        matrix = matrix.reshape(size, width)
        return ParametricPolynomial._from_arrays(
            self.variables, exps, dvars, matrix, constants, ordered=True)

    def __rmul__(self, other) -> "ParametricPolynomial":
        return self.__mul__(other)

    def __truediv__(self, other) -> "ParametricPolynomial":
        if _is_number(other):
            if float(other) == 0.0:
                raise ZeroDivisionError
            return self * (1.0 / float(other))
        return NotImplemented

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def instantiate(self, assignment: Mapping[DecisionVariable, float]) -> Polynomial:
        """Substitute decision-variable values, producing a numeric polynomial."""
        values = np.array([float(assignment[d]) for d in self._dvars])
        return self._numeric(self._constants + self._matrix @ values)

    def to_polynomial(self) -> Polynomial:
        """Convert a purely numeric parametric polynomial to a Polynomial."""
        if not self.is_numeric():
            raise ValueError("parametric polynomial still contains decision variables")
        return self._numeric(self._constants)

    def _numeric(self, values: np.ndarray) -> Polynomial:
        """The numeric polynomial with these term values (near-zeros dropped)."""
        keep = np.abs(values) > COEFFICIENT_TOLERANCE
        return Polynomial._from_arrays(self.variables, self._exponents[keep],
                                       values[keep], canonical=True)

    # ------------------------------------------------------------------
    # Calculus (needed for Lie derivatives of unknown certificates)
    # ------------------------------------------------------------------
    def differentiate(self, variable: Union[Variable, int]) -> "ParametricPolynomial":
        index = variable if isinstance(variable, int) else self.variables.index(variable)
        powers = self._exponents[:, index]
        keep = powers > 0
        exps = self._exponents[keep]  # a copy: boolean indexing
        exps[:, index] -= 1
        factors = powers[keep].astype(float)
        # Lowering one exponent keeps the graded-lex order of the rows.
        return ParametricPolynomial._from_arrays(
            self.variables, exps, self._dvars, self._matrix[keep] * factors[:, None],
            0.0 + self._constants[keep] * factors, ordered=True)

    def gradient(self) -> Tuple["ParametricPolynomial", ...]:
        return tuple(self.differentiate(i) for i in range(len(self.variables)))

    def lie_derivative(self, vector_field: Sequence[Polynomial]) -> "ParametricPolynomial":
        if len(vector_field) != len(self.variables):
            raise ValueError("vector field dimension mismatch")
        result = ParametricPolynomial.zero(self.variables)
        for i, component in enumerate(vector_field):
            partial = self.differentiate(i)
            if not partial._exponents.shape[0]:
                continue
            result = result + partial * component
        return result

    def __repr__(self) -> str:
        terms = [f"({expr!r})*{mono.to_string(self.variables)}"
                 for mono, expr in self.coefficients.items()]
        return "ParametricPolynomial(" + (" + ".join(terms) if terms else "0") + ")"
