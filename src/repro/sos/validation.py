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
from typing import Optional, Sequence, Tuple

import numpy as np

from ..polynomial import Polynomial
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
    if in_domain.shape[0] == 0:
        return ValidationReport(name=name, num_samples=num_samples, num_in_domain=0,
                                min_value=float("inf"), argmin=None, tolerance=tolerance)
    values = polynomial.evaluate_many(in_domain)
    idx = int(np.argmin(values))
    return ValidationReport(
        name=name,
        num_samples=num_samples,
        num_in_domain=int(in_domain.shape[0]),
        min_value=float(values[idx]),
        argmin=in_domain[idx],
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
