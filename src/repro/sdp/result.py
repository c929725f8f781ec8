"""Solver result types shared by both ADMM loops."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


class SolverStatus(enum.Enum):
    """Termination status of a conic solve."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"            # feasibility problem solved to tolerance
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"        # a Farkas certificate passed farkas_margin
    INFEASIBLE_SUSPECTED = "infeasible_suspected"
    NUMERICAL_ERROR = "numerical_error"

    @property
    def is_success(self) -> bool:
        return self in (SolverStatus.OPTIMAL, SolverStatus.FEASIBLE)


@dataclass
class SolverResult:
    """Output of a conic SDP solve.

    Attributes
    ----------
    status:
        Termination status.
    x:
        Primal solution in the stacked variable order of the problem.
    objective:
        Primal objective value ``c^T x`` (0 for pure feasibility problems).
    primal_residual / dual_residual:
        Final ADMM / IPM residuals, useful for diagnosing marginal solves.
    equality_residual:
        ``||A x - b||_inf`` of the returned point.
    cone_violation:
        Distance of the returned point from the cone (infinity norm).
    iterations:
        Number of iterations performed.
    solve_time:
        Wall-clock seconds spent inside the solver.
    info:
        Solver diagnostics (residual history, warm-start data, …).
    """

    status: SolverStatus
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    equality_residual: float = float("nan")
    cone_violation: float = float("nan")
    iterations: int = 0
    solve_time: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def is_success(self) -> bool:
        return self.status.is_success and self.x is not None

    def summary(self) -> str:
        return (
            f"status={self.status.value}, obj={self.objective:.6g}, "
            f"eq_res={self.equality_residual:.2e}, cone_viol={self.cone_violation:.2e}, "
            f"iters={self.iterations}, time={self.solve_time:.3f}s"
        )


@dataclass
class SolveHistory:
    """Per-iteration residual history (kept small; sampled every few iterations)."""

    primal: List[float] = field(default_factory=list)
    dual: List[float] = field(default_factory=list)
    objective: List[float] = field(default_factory=list)

    def record(self, primal: float, dual: float, objective: float) -> None:
        self.primal.append(float(primal))
        self.dual.append(float(dual))
        self.objective.append(float(objective))

    def __len__(self) -> int:
        return len(self.primal)
