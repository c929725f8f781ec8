"""Plain-data codecs of certificate polynomials.

Engine jobs run inline or in separate worker processes; the certificates
that cross the job boundary and the certificates persisted in JSON reports
are encoded as plain dicts/lists so they pickle cheaply, diff cleanly and
survive round-trips independent of object identity.  Terms are sorted by
monomial order, making the encoding deterministic.
"""

from __future__ import annotations

from typing import Dict

from ..polynomial import Monomial, Polynomial, VariableVector, make_variables


def polynomial_to_data(poly: Polynomial) -> Dict[str, object]:
    """Encode a numeric polynomial as ``{"variables": [...], "terms": [...]}``."""
    terms = sorted(poly.coefficients.items(), key=lambda item: Monomial.sort_key(item[0]))
    return {
        "variables": list(poly.variables.names),
        "terms": [[list(mono.exponents), float(coeff)] for mono, coeff in terms],
    }


def polynomial_from_data(data: Dict[str, object]) -> Polynomial:
    """Inverse of :func:`polynomial_to_data`."""
    variables = VariableVector(make_variables(*data["variables"]))
    coefficients = {tuple(int(e) for e in exponents): float(coeff)
                    for exponents, coeff in data["terms"]}
    return Polynomial(variables, coefficients)


def certificates_to_data(certificates: Dict[str, Polynomial]) -> Dict[str, object]:
    """Encode a per-mode certificate dictionary (sorted by mode name)."""
    return {name: polynomial_to_data(certificates[name])
            for name in sorted(certificates)}


def certificates_from_data(data: Dict[str, object]) -> Dict[str, Polynomial]:
    return {name: polynomial_from_data(entry) for name, entry in data.items()}

