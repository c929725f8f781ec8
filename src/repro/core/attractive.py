"""The attractive invariant set ``X1`` (Theorem 2 of the paper).

``X1`` is the union of the maximised Lyapunov sub-level sets,
``X1 = ∪_q {V_q <= c_q}``.  This module wraps that union with membership
tests, projections and sampling utilities used by the advection stage, the
figures and the validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..polynomial import Polynomial, VariableVector
from .levelset import MaximizedLevelSet


@dataclass
class AttractiveInvariant:
    """Union of maximised Lyapunov level sets (the paper's ``X_I`` / ``X1``)."""

    level_sets: Dict[str, MaximizedLevelSet]
    variables: VariableVector

    def __post_init__(self) -> None:
        if not self.level_sets:
            raise ValueError("an attractive invariant needs at least one level set")

    # ------------------------------------------------------------------
    @property
    def mode_names(self) -> Tuple[str, ...]:
        return tuple(self.level_sets)

    def level_set(self, mode_name: str) -> MaximizedLevelSet:
        return self.level_sets[mode_name]

    def sublevel_polynomials(self) -> Dict[str, Polynomial]:
        """Per-mode polynomials whose 0-sub-level sets make up the union."""
        return {name: ls.sublevel_polynomial for name, ls in self.level_sets.items()}

    # ------------------------------------------------------------------
    def contains(self, state: Sequence[float], tolerance: float = 1e-9) -> bool:
        """Membership in the union."""
        return any(ls.contains(state, tolerance=tolerance)
                   for ls in self.level_sets.values())

    def membership_margin(self, state: Sequence[float]) -> float:
        """``min_q (V_q(x) - c_q)`` — negative inside the union, positive outside."""
        return min(ls.certificate.evaluate(state) - ls.level
                   for ls in self.level_sets.values())

    def membership_margins(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`membership_margin` for an ``(m, n)`` array of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        margins = np.full(points.shape[0], np.inf)
        for ls in self.level_sets.values():
            margins = np.minimum(
                margins, ls.certificate.evaluate_many(points) - ls.level)
        return margins

    def contains_points(self, points: np.ndarray, tolerance: float = 1e-9) -> np.ndarray:
        """Vectorised membership for an ``(m, n)`` array of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.zeros(points.shape[0], dtype=bool)
        for ls in self.level_sets.values():
            inside |= ls.certificate.evaluate_many(points) <= ls.level + tolerance
        return inside

    # ------------------------------------------------------------------
    def is_invariant_along(self, trajectory: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Check forward invariance along a sampled trajectory.

        Once a sample is inside the union, every later sample must be inside
        as well (up to ``tolerance`` on the membership margin).
        """
        trajectory = np.atleast_2d(np.asarray(trajectory, dtype=float))
        inside = self.membership_margins(trajectory) <= tolerance
        if not inside.any():
            return True
        first_inside = int(np.argmax(inside))
        return bool(np.all(inside[first_inside:]))

    # ------------------------------------------------------------------
    def summary_rows(self) -> List[Tuple[str, float, int]]:
        """(mode, maximised level, certificate degree) rows for reports."""
        return [(name, ls.level, ls.certificate.degree)
                for name, ls in sorted(self.level_sets.items())]

    def describe(self) -> str:
        rows = ", ".join(f"{name}: c={ls.level:.4g} (deg {ls.certificate.degree})"
                         for name, ls in sorted(self.level_sets.items()))
        return f"AttractiveInvariant({rows})"
