"""A-posteriori validation of SOS certificates.

The ADMM solver is a first-order method with finite tolerances, so every
certificate produced by the pipeline is re-checked independently:

* *algebraically* — the Gram matrix must be (numerically) PSD and reproduce
  the constrained polynomial up to a small coefficient residual;
* *by sampling* — the certified inequality is evaluated on a dense cloud of
  points drawn from the relevant semialgebraic set; a violation beyond the
  tolerance flags the certificate as unsound.

This mirrors sound practice in SOS-based verification: the SDP is only a
search engine, the returned certificate is what carries the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..polynomial import Polynomial, PolynomialStack
from .sprocedure import SemialgebraicSet


@dataclass
class ValidationReport:
    """Outcome of a sampling-based inequality check."""

    name: str
    num_samples: int
    num_in_domain: int
    min_value: float
    argmin: Optional[np.ndarray]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.min_value >= -self.tolerance

    def __str__(self) -> str:
        if not self.passed:
            status = "FAIL"
        elif self.num_in_domain == 0:
            # No sample landed in the domain, so the check proved nothing.
            status = "VACUOUS"
        else:
            status = "PASS"
        return (f"[{status}] {self.name}: min={self.min_value:.3e} over "
                f"{self.num_in_domain}/{self.num_samples} in-domain samples "
                f"(tol={self.tolerance:g})")


def sample_box(bounds: Sequence[Tuple[float, float]], num_samples: int,
               seed: int = 0) -> np.ndarray:
    """Uniform samples from an axis-aligned box."""
    rng = np.random.default_rng(seed)
    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])
    return rng.uniform(lows, highs, size=(num_samples, len(bounds)))


def sample_set(domain: SemialgebraicSet, bounds: Sequence[Tuple[float, float]],
               num_samples: int, seed: int = 0,
               max_attempts: int = 20) -> np.ndarray:
    """Rejection-sample points of a semialgebraic set inside a bounding box."""
    collected: list = []
    attempt = 0
    needed = num_samples
    while needed > 0 and attempt < max_attempts:
        candidates = sample_box(bounds, max(needed * 4, 64), seed=seed + attempt)
        accepted = candidates[domain.contains_many(candidates)]
        collected.extend(accepted)
        needed = num_samples - len(collected)
        attempt += 1
    if not collected:
        return np.empty((0, len(bounds)))
    return np.array(collected[:num_samples])


def validate_nonnegativity(
    polynomial: Polynomial,
    domain: Optional[SemialgebraicSet],
    bounds: Sequence[Tuple[float, float]],
    num_samples: int = 2000,
    tolerance: float = 1e-6,
    seed: int = 0,
    name: str = "nonnegativity",
) -> ValidationReport:
    """Check ``polynomial >= -tolerance`` on sampled points of ``domain``."""
    points = sample_box(bounds, num_samples, seed=seed)
    if domain is not None:
        in_domain = points[domain.contains_many(points)]
    else:
        in_domain = points
    return _minimum_report(name, num_samples, in_domain,
                           polynomial.evaluate_many(in_domain), tolerance)


def _minimum_report(name: str, num_samples: int, points: np.ndarray,
                    values: np.ndarray, tolerance: float) -> ValidationReport:
    """The report of ``values`` at the in-domain ``points`` (vacuous when empty)."""
    if points.shape[0] == 0:
        return ValidationReport(name=name, num_samples=num_samples, num_in_domain=0,
                                min_value=float("inf"), argmin=None, tolerance=tolerance)
    idx = int(np.argmin(values))
    return ValidationReport(
        name=name,
        num_samples=num_samples,
        num_in_domain=int(points.shape[0]),
        min_value=float(values[idx]),
        argmin=points[idx],
        tolerance=tolerance,
    )


def validate_decrease_along_field(
    certificate: Polynomial,
    vector_field: Sequence[Polynomial],
    domain: Optional[SemialgebraicSet],
    bounds: Sequence[Tuple[float, float]],
    num_samples: int = 2000,
    tolerance: float = 1e-6,
    seed: int = 0,
    name: str = "lie_derivative",
) -> ValidationReport:
    """Check that the Lie derivative of ``certificate`` is <= tolerance on the domain."""
    lie = certificate.lie_derivative(list(vector_field))
    return validate_nonnegativity(-lie, domain, bounds, num_samples=num_samples,
                                  tolerance=tolerance, seed=seed, name=name)


def _polynomial_key(poly: Polynomial) -> tuple:
    """Exact content key of a polynomial: its variables and term arrays."""
    exponents = poly.exponent_matrix
    return (poly.variables.names, exponents.shape, exponents.tobytes(),
            poly.coefficient_array.tobytes())


@dataclass(frozen=True)
class DecreaseSamples:
    """One decrease check's ``-grad V . f`` at its in-domain samples.

    ``draw`` keys the samples (certificate, domain, bounds and sample
    count): checks with equal keys were evaluated at the same ``points``,
    so their ``values`` can be combined entry by entry.
    """

    name: str
    draw: tuple
    num_samples: int
    tolerance: float
    points: np.ndarray
    values: np.ndarray

    def report(self, values: Optional[np.ndarray] = None) -> ValidationReport:
        """The check's report; with ``values``, the report of those values
        at the same samples."""
        return _minimum_report(self.name, self.num_samples, self.points,
                               self.values if values is None else values,
                               self.tolerance)


class DecreaseSamplingPlan:
    """:func:`validate_decrease_along_field` with its samples drawn once.

    Drawing the samples, filtering them by the domain and evaluating the
    certificate gradient depend only on the certificate, the domain, the
    bounds and the sample count; the plan does that once per distinct
    combination and evaluates each check's vector field at the kept samples.
    Checks that differ only in the field (the vertex fields of one mode, or
    the structural points of a parameter sweep) share one draw, and their
    :class:`DecreaseSamples` carry the same ``draw`` key.  The key is the
    *content* of the certificate and of the domain's polynomials, so a check
    whose domain moves (say, with a swept flow set) draws its own samples.
    """

    def __init__(self) -> None:
        self._draws: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._draws)

    def sample_decrease(
        self,
        certificate: Polynomial,
        vector_field: Sequence[Polynomial],
        domain: Optional[SemialgebraicSet],
        bounds: Sequence[Tuple[float, float]],
        num_samples: int,
        tolerance: float,
        name: str,
    ) -> DecreaseSamples:
        """``-grad V . f`` at the plan's samples of the domain; its
        :meth:`~DecreaseSamples.report` is that of
        :func:`validate_decrease_along_field` (seed 0)."""
        domain_key = None if domain is None else (
            domain.variables.names,
            tuple(_polynomial_key(g) for g in domain.inequalities),
            tuple(_polynomial_key(h) for h in domain.equalities))
        key = (_polynomial_key(certificate), domain_key,
               tuple((float(lo), float(hi)) for lo, hi in bounds), int(num_samples))
        draw = self._draws.get(key)
        if draw is None:
            points = sample_box(bounds, num_samples, seed=0)
            if domain is not None:
                points = points[domain.contains_many(points)]
            gradient = PolynomialStack(certificate.gradient(),
                                       certificate.variables).evaluate_many(points)
            draw = self._draws[key] = (points, gradient)
        points, gradient = draw
        field = PolynomialStack(vector_field, certificate.variables).evaluate_many(points)
        return DecreaseSamples(name=name, draw=key, num_samples=int(num_samples),
                               tolerance=tolerance, points=points,
                               values=-np.einsum("ij,ij->i", gradient, field))


def minimum_on_level_set(
    polynomial: Polynomial,
    level_function: Polynomial,
    level: float,
    bounds: Sequence[Tuple[float, float]],
    num_samples: int = 4000,
    seed: int = 0,
) -> float:
    """Sampled minimum of ``polynomial`` on ``{x : level_function(x) <= level}``."""
    points = sample_box(bounds, num_samples, seed=seed)
    values_level = level_function.evaluate_many(points)
    inside = points[values_level <= level]
    if inside.shape[0] == 0:
        return float("inf")
    return float(polynomial.evaluate_many(inside).min())
