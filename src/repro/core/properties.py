"""The two sub-properties whose conjunction is inevitability (§3 of the paper).

* **Property 1** — every trajectory starting in the compact set ``X1``
  converges to the equilibrium.  Established by the multiple Lyapunov
  certificates and their maximised level sets (Theorem 2).
* **Property 2** — every trajectory starting in ``X2 = (C ∪ D) \\ X1`` reaches
  ``X1`` in bounded time.  Established per mode by bounded advection and, for
  inconclusive sub-regions, escape certificates.

Because the SOS relaxation is sound but incomplete, each property carries a
three-valued status: verified, inconclusive (no certificate found) or failed
(a certificate was produced but did not survive independent validation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..polynomial import Polynomial
from .attractive import AttractiveInvariant


class VerificationStatus(enum.Enum):
    """Three-valued verdict of a (sub-)property."""

    VERIFIED = "verified"
    INCONCLUSIVE = "inconclusive"
    FAILED = "failed"

    @property
    def is_verified(self) -> bool:
        return self is VerificationStatus.VERIFIED

    def combine(self, other: "VerificationStatus") -> "VerificationStatus":
        """Conjunction: verified only if both are; failed dominates inconclusive."""
        if self is VerificationStatus.FAILED or other is VerificationStatus.FAILED:
            return VerificationStatus.FAILED
        if self is VerificationStatus.INCONCLUSIVE or other is VerificationStatus.INCONCLUSIVE:
            return VerificationStatus.INCONCLUSIVE
        return VerificationStatus.VERIFIED


@dataclass
class PropertyOneResult:
    """Attractivity inside ``X1`` (Theorem 2)."""

    status: VerificationStatus
    #: Per-mode Lyapunov certificates the synthesis returned — also when
    #: they failed validation (empty when the solver produced none).
    certificates: Dict[str, Polynomial] = field(default_factory=dict)
    invariant: Optional[AttractiveInvariant] = None
    message: str = ""

    @property
    def verified(self) -> bool:
        return self.status.is_verified


@dataclass
class ModePropertyTwoResult:
    """Property-2 evidence for a single mode."""

    mode_name: str
    status: VerificationStatus
    message: str = ""
    #: Advection steps taken and whether the advected set was absorbed.
    iterations: int = 0
    converged: bool = False
    #: Whether an escape certificate was synthesised for the mode.
    escape_found: bool = False
    #: Relaxation whose Lemma-1 certificate settled the final set-inclusion
    #: re-check (``None`` when no inclusion certificate was found).
    relaxation: Optional[str] = None


@dataclass
class PropertyTwoResult:
    """Bounded reachability of ``X1`` from ``X2`` (Algorithm 1)."""

    status: VerificationStatus
    per_mode: Dict[str, ModePropertyTwoResult] = field(default_factory=dict)
    message: str = ""

    @property
    def verified(self) -> bool:
        return self.status.is_verified
