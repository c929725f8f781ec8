"""Multivariate polynomial algebra substrate.

This subpackage provides everything the SOS layer needs from polynomial
algebra: variables, monomials, numeric polynomials (with calculus and
composition), affine decision expressions, parametric polynomials and
Gram-matrix utilities.
"""

from .variables import Variable, VariableVector, make_variables
from .monomial import (
    Monomial,
    basis_exponent_matrix,
    exponent_matrix_up_to_degree,
    exponents_up_to_degree,
    monomial_product_index,
)
from .polynomial import (
    Polynomial,
    PolynomialStack,
    polynomial_vector,
    COEFFICIENT_TOLERANCE,
)
from .basis import (
    basis_for_support,
    basis_size,
    basis_to_polynomials,
    equality_basis,
    even_basis,
    gram_basis_for_degree,
    monomial_basis,
    product_support,
)
from .linexpr import DecisionVariable, LinExpr
from .parampoly import ParametricPolynomial
from .gram import (
    GramProductTable,
    SOSDecomposition,
    check_sos_numerically,
    extract_sos_decomposition,
    gram_product_table,
    gram_residual,
    gram_to_polynomial,
    polynomial_to_gram_structure,
    project_to_psd,
)

__all__ = [
    "Variable",
    "VariableVector",
    "make_variables",
    "Monomial",
    "exponents_up_to_degree",
    "exponent_matrix_up_to_degree",
    "basis_exponent_matrix",
    "monomial_product_index",
    "Polynomial",
    "PolynomialStack",
    "polynomial_vector",
    "COEFFICIENT_TOLERANCE",
    "monomial_basis",
    "basis_size",
    "gram_basis_for_degree",
    "basis_for_support",
    "equality_basis",
    "even_basis",
    "basis_to_polynomials",
    "product_support",
    "DecisionVariable",
    "LinExpr",
    "ParametricPolynomial",
    "gram_to_polynomial",
    "gram_product_table",
    "GramProductTable",
    "polynomial_to_gram_structure",
    "SOSDecomposition",
    "extract_sos_decomposition",
    "project_to_psd",
    "check_sos_numerically",
    "gram_residual",
]
