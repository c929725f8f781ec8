"""Charge-pump PLL parameter sets (Table 1 of the paper).

Every circuit parameter is an :class:`~repro.utils.intervals.Interval` because
the paper verifies the property for *ranges* of component values (process
variation).  The two classmethods reproduce the third- and fourth-order
columns of Table 1 exactly; custom designs can be built directly.

Units are SI throughout this module (farads, ohms, amperes, hertz).  The
verification models are built in normalised coordinates — see
:mod:`repro.pll.scaling`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import ModelError
from ..utils import Interval


@dataclass(frozen=True)
class PLLParameters:
    """Component values of a single-path third/fourth order CP PLL.

    Attributes
    ----------
    order:
        3 for the C1-R-C2 loop filter, 4 when the additional R2-C3 section
        is present.
    c1, c2, c3:
        Loop-filter capacitances (farads); ``c3`` only for order 4.
    r, r2:
        Loop-filter resistances (ohms); ``r2`` only for order 4.
    f_ref:
        Reference frequency (hertz).
    k_vco:
        VCO gain (hertz per volt).
    i_p:
        Charge-pump current magnitude (amperes).
    divider:
        Feedback divider ratio N.
    f_free:
        VCO free-running frequency (hertz).  Not listed in Table 1; it fixes
        where the locked control voltage sits and defaults to a value giving a
        modest positive lock voltage (see :meth:`lock_voltage`).
    """

    order: int
    c1: Interval
    c2: Interval
    r: Interval
    f_ref: Interval
    k_vco: Interval
    i_p: Interval
    divider: Interval
    c3: Optional[Interval] = None
    r2: Optional[Interval] = None
    f_free: float = 0.0
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.order not in (3, 4):
            raise ModelError(f"only third and fourth order PLLs are supported, got {self.order}")
        if self.order == 4 and (self.c3 is None or self.r2 is None):
            raise ModelError("fourth-order parameters require c3 and r2")
        if self.order == 3 and (self.c3 is not None or self.r2 is not None):
            raise ModelError("third-order parameters must not define c3 or r2")
        for label, interval in self.named_intervals().items():
            if interval.lower <= 0:
                raise ModelError(f"parameter {label} must be strictly positive, got {interval}")

    # ------------------------------------------------------------------
    # Table 1 of the paper
    # ------------------------------------------------------------------
    @classmethod
    def third_order_paper(cls) -> "PLLParameters":
        """Third-order column of Table 1."""
        return cls(
            order=3,
            c1=Interval(1.98e-12, 2.2e-12),
            c2=Interval(6.1e-12, 6.4e-12),
            r=Interval(7.8e3, 8.2e3),
            f_ref=Interval.point(27e6),
            k_vco=Interval.point(27e9),          # 27e3 MHz per volt
            i_p=Interval(495e-6, 505e-6),
            divider=Interval(198.0, 202.0),
            name="third_order_paper",
        )

    @classmethod
    def fourth_order_paper(cls) -> "PLLParameters":
        """Fourth-order column of Table 1."""
        return cls(
            order=4,
            c1=Interval(29e-12, 31e-12),
            c2=Interval(3.2e-12, 3.4e-12),
            c3=Interval(1.8e-12, 2.2e-12),
            r=Interval(48e3, 52e3),
            r2=Interval(7e3, 9e3),
            f_ref=Interval.point(5e6),
            k_vco=Interval.point(5e6),           # 5 MHz per volt
            i_p=Interval(395e-6, 405e-6),
            divider=Interval(495.0, 502.0),
            name="fourth_order_paper",
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def named_intervals(self) -> Dict[str, Interval]:
        intervals = {
            "c1": self.c1,
            "c2": self.c2,
            "r": self.r,
            "f_ref": self.f_ref,
            "k_vco": self.k_vco,
            "i_p": self.i_p,
            "divider": self.divider,
        }
        if self.order == 4:
            intervals["c3"] = self.c3
            intervals["r2"] = self.r2
        return intervals

    def nominal(self) -> Dict[str, float]:
        """Interval mid-points."""
        return {name: interval.center for name, interval in self.named_intervals().items()}

    def sample(self, rng: np.random.Generator) -> Dict[str, float]:
        """A random corner-to-corner parameter draw (for Monte-Carlo validation)."""
        return {name: float(interval.sample(rng, 1)[0])
                for name, interval in self.named_intervals().items()}

    def vertices(self) -> Iterator[Dict[str, float]]:
        """All corner combinations of the non-degenerate intervals."""
        names = list(self.named_intervals())
        intervals = [self.named_intervals()[n] for n in names]

        def recurse(idx: int, current: Dict[str, float]):
            if idx == len(names):
                yield dict(current)
                return
            interval = intervals[idx]
            values = [interval.lower] if interval.is_degenerate() else [interval.lower,
                                                                        interval.upper]
            for value in values:
                current[names[idx]] = value
                yield from recurse(idx + 1, current)

        yield from recurse(0, {})

    # ------------------------------------------------------------------
    # Derived quantities (nominal values)
    # ------------------------------------------------------------------
    def lock_frequency(self) -> float:
        """Nominal VCO frequency in lock: ``N * f_ref``."""
        nominal = self.nominal()
        return nominal["divider"] * nominal["f_ref"]

    def lock_voltage(self) -> float:
        """Nominal control voltage in lock: ``(N f_ref - f_free) / K_vco``."""
        nominal = self.nominal()
        return (self.lock_frequency() - self.f_free) / nominal["k_vco"]

    def averaged_state_matrix(self, values: Optional[Dict[str, float]] = None) -> np.ndarray:
        """State matrix of the *averaged* (phase-error proportional) linear model.

        States are ``(v1, v2, e)`` for order 3 and ``(v1, v2, v3, e)`` for
        order 4, with voltages as deviations from lock and the phase error
        ``e`` in cycles.  Used to sanity-check loop stability and as a
        baseline linear analysis.
        """
        p = values or self.nominal()
        if self.order == 3:
            return np.array([
                [-1.0 / (p["r"] * p["c1"]), 1.0 / (p["r"] * p["c1"]), 0.0],
                [1.0 / (p["r"] * p["c2"]), -1.0 / (p["r"] * p["c2"]), p["i_p"] / p["c2"]],
                [0.0, -p["k_vco"] / p["divider"], 0.0],
            ])
        return np.array([
            [-1.0 / (p["r"] * p["c1"]), 1.0 / (p["r"] * p["c1"]), 0.0, 0.0],
            [1.0 / (p["r"] * p["c2"]),
             -1.0 / (p["r"] * p["c2"]) - 1.0 / (p["r2"] * p["c2"]),
             1.0 / (p["r2"] * p["c2"]), p["i_p"] / p["c2"]],
            [0.0, 1.0 / (p["r2"] * p["c3"]), -1.0 / (p["r2"] * p["c3"]), 0.0],
            [0.0, 0.0, -p["k_vco"] / p["divider"], 0.0],
        ])

    def is_averaged_model_stable(self, values: Optional[Dict[str, float]] = None) -> bool:
        eigenvalues = np.linalg.eigvals(self.averaged_state_matrix(values))
        return bool(np.all(eigenvalues.real < 0.0))

    # ------------------------------------------------------------------
    def table_rows(self) -> List[Tuple[str, str]]:
        """Human-readable (parameter, range) rows reproducing Table 1 formatting."""
        def fmt(value: float, scale: float, unit: str) -> str:
            return f"{value / scale:g}{unit}"

        rows = [
            ("C1", f"[{fmt(self.c1.lower, 1e-12, '')} {fmt(self.c1.upper, 1e-12, '')}] pF"),
            ("C2", f"[{fmt(self.c2.lower, 1e-12, '')} {fmt(self.c2.upper, 1e-12, '')}] pF"),
        ]
        if self.order == 4:
            rows.append(("C3", f"[{fmt(self.c3.lower, 1e-12, '')} {fmt(self.c3.upper, 1e-12, '')}] pF"))
        rows.append(("R", f"[{fmt(self.r.lower, 1e3, '')} {fmt(self.r.upper, 1e3, '')}] kOhm"))
        if self.order == 4:
            rows.append(("R2", f"[{fmt(self.r2.lower, 1e3, '')} {fmt(self.r2.upper, 1e3, '')}] kOhm"))
        rows.extend([
            ("f_ref", f"{self.f_ref.center / 1e6:g} MHz"),
            ("K0", f"{self.k_vco.center / 1e6:g} MHz/V"),
            ("Ip", f"[{self.i_p.lower * 1e6:g} {self.i_p.upper * 1e6:g}] uA"),
            ("N", f"[{self.divider.lower:g} {self.divider.upper:g}]"),
        ])
        return rows

    def describe(self) -> str:
        rows = "\n".join(f"  {name:6s} {value}" for name, value in self.table_rows())
        return f"PLLParameters({self.name!r}, order={self.order})\n{rows}"
