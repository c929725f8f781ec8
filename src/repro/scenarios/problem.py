"""The common verification-problem container consumed by the engine.

:class:`ScenarioProblem` exposes the same structural interface as
:class:`~repro.pll.model.PLLVerificationModel` (state bounds, per-mode
domains, the outer set ``X2``), so the engine's job DAG runs on any
registered workload — PLLs, power converters or plain continuous polynomial
systems wrapped in a single-mode hybrid shell.
:class:`~repro.core.inevitability.InevitabilityVerifier` wraps a bare PLL
model in one (:meth:`ScenarioProblem.from_pll_model`) to run the same DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


from ..core.inevitability import InevitabilityOptions
from ..hybrid import HybridSystem
from ..pll.model import PLLVerificationModel
from ..polynomial import Polynomial, VariableVector
from ..sos import SemialgebraicSet


@dataclass
class ScenarioProblem:
    """One concrete verification workload.

    Attributes
    ----------
    system:
        The hybrid system under verification.
    bounds:
        Region-of-interest box, one ``(lo, hi)`` pair per state.
    options:
        Aggregated per-stage options (degrees, budgets, solver settings).
    outer:
        Polynomial whose 0-sub-level set is the initial outer set ``X2``;
        ``None`` selects the axis-aligned ellipsoid inscribed in ``bounds``.
    uncertainty:
        Label recorded in reports (mirrors the PLL models).
    pll_model:
        The underlying PLL verification model, when the scenario wraps one;
        enables the simulation-based falsification cross-check.
    falsification_count:
        Number of random initial states for the cross-check (0 disables it).
    falsification_duration:
        Simulated horizon (in normalised time units) per falsification run.
    lock_radius:
        Convergence radius used by the falsification convergence claim.
    name / expected:
        Filled in by the registry when the problem is built from a spec.
    """

    system: HybridSystem
    bounds: List[Tuple[float, float]]
    options: InevitabilityOptions
    outer: Optional[Polynomial] = None
    uncertainty: str = "none"
    pll_model: Optional[PLLVerificationModel] = None
    falsification_count: int = 0
    falsification_duration: float = 40.0
    lock_radius: float = 0.6
    name: str = "scenario"
    expected: str = "any"

    def __post_init__(self) -> None:
        if len(self.bounds) != self.system.num_states:
            raise ValueError(
                f"scenario {self.name!r}: {len(self.bounds)} bounds for "
                f"{self.system.num_states} states")

    def fill_option_defaults(self) -> "ScenarioProblem":
        """Fill the problem-specific option defaults in place; returns self.

        The S-procedure domains of the Lyapunov search include the
        region-of-interest box unless the options name their own.
        """
        if self.options.lyapunov.domain_boxes is None:
            self.options.lyapunov.domain_boxes = self.state_bounds()
        return self

    # ------------------------------------------------------------------
    # The PLLVerificationModel structural interface used by the pipeline.
    # ------------------------------------------------------------------
    @property
    def state_variables(self) -> VariableVector:
        return self.system.state_variables

    @property
    def state_names(self) -> Tuple[str, ...]:
        return self.system.state_variables.names

    def state_bounds(self) -> List[Tuple[float, float]]:
        return list(self.bounds)

    def region_box_set(self, name: str = "region") -> SemialgebraicSet:
        if self.pll_model is not None:
            return self.pll_model.region_box_set(name=name)
        empty = SemialgebraicSet(self.state_variables, name=name)
        return empty.with_box(self.bounds)

    def mode_domain(self, mode_name: str) -> SemialgebraicSet:
        if self.pll_model is not None:
            return self.pll_model.mode_domain(mode_name)
        mode = self.system.mode(mode_name)
        return mode.flow_set.intersect(self.region_box_set(name=f"{mode_name}_roi"))

    def outer_set_polynomial(self, margin: float = 1.0) -> Polynomial:
        if self.pll_model is not None and self.outer is None:
            return self.pll_model.outer_set_polynomial(margin=margin)
        if self.outer is not None:
            return self.outer if margin == 1.0 else \
                self.outer + (1.0 - float(margin))
        variables = self.state_variables
        poly = Polynomial.constant(variables, -float(margin))
        for i, (lo, hi) in enumerate(self.bounds):
            limit = max(abs(lo), abs(hi))
            xi = Polynomial.from_variable(variables[i], variables)
            poly = poly + xi * xi * (1.0 / (limit * limit))
        return poly

    def nominal_fields(self) -> Dict[str, Tuple[Polynomial, ...]]:
        if self.pll_model is not None:
            return self.pll_model.nominal_fields()
        nominal = self.system.nominal_parameters()
        return {mode.name: mode.flow_map_with_parameters(nominal)
                for mode in self.system.modes}

    # ------------------------------------------------------------------
    @classmethod
    def from_pll_model(cls, model: PLLVerificationModel,
                       options: InevitabilityOptions,
                       falsification_count: int = 0,
                       falsification_duration: float = 40.0,
                       lock_radius: float = 0.6) -> "ScenarioProblem":
        """Wrap an existing PLL verification model as a scenario problem."""
        return cls(
            system=model.system,
            bounds=model.state_bounds(),
            options=options,
            uncertainty=model.uncertainty,
            pll_model=model,
            falsification_count=falsification_count,
            falsification_duration=falsification_duration,
            lock_radius=lock_radius,
        )

    @property
    def supports_falsification(self) -> bool:
        return self.pll_model is not None and self.falsification_count > 0

    def describe(self) -> str:
        lines = [
            f"ScenarioProblem({self.name!r}, expected={self.expected!r}, "
            f"uncertainty={self.uncertainty!r})",
            f"  states: {list(self.state_names)}  bounds: {self.bounds}",
        ]
        lines.append(self.system.describe())
        return "\n".join(lines)
