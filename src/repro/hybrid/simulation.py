"""Event-driven numerical simulation of hybrid systems.

The simulator integrates the active mode's ODE with ``scipy.integrate
.solve_ivp`` and uses event functions (the transition trigger polynomials) to
detect guard crossings, then applies the reset map and continues in the
target mode.  Output is a :class:`~repro.hybrid.time_domain.HybridArc` over a
hybrid time domain, matching the formal solution concept of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..exceptions import ModelError
from ..polynomial import PolynomialStack, Variable
from ..utils import get_logger
from .system import HybridSystem
from .time_domain import ArcSegment, HybridArc, HybridTimeInterval

LOGGER = get_logger("hybrid.simulation")

#: Jump budget of one simulation; reaching it ends the simulation.
MAX_JUMPS = 10000


@dataclass
class SimulationSettings:
    """Options for :class:`HybridSimulator`."""

    max_flow_time: float = 100.0
    max_step: float = 0.05
    rtol: float = 1e-8
    atol: float = 1e-10
    terminal_radius: Optional[float] = None  # stop early when near the equilibrium


@dataclass
class SimulationResult:
    """A hybrid arc plus bookkeeping about why the simulation ended."""

    arc: HybridArc
    termination: str               # "max_flow_time" | "max_jumps" | "converged" | "blocked"
    parameters: Dict[Variable, float] = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.arc.final_state

    @property
    def num_jumps(self) -> int:
        return self.arc.num_jumps


class HybridSimulator:
    """Simulate a :class:`HybridSystem` from a given initial condition."""

    def __init__(self, system: HybridSystem,
                 settings: Optional[SimulationSettings] = None):
        self.system = system
        self.settings = settings or SimulationSettings()

    # ------------------------------------------------------------------
    def _initial_mode(self, state: np.ndarray, mode_name: Optional[str]) -> str:
        if mode_name is not None:
            return mode_name
        active = self.system.active_modes(state, tolerance=1e-7)
        if not active:
            raise ModelError(
                f"initial state {state.tolist()} is outside every mode's flow set"
            )
        return active[0].name

    def _make_events(self, mode_name: str):
        """Build solve_ivp event functions from the outgoing transition triggers.

        All triggers of the mode are fused into one :class:`PolynomialStack`;
        since the integrator evaluates every event at every accepted step, the
        stacked values are computed once per state and shared by the event
        callables through a one-slot memo.
        """
        transitions = [t for t in self.system.transitions_from(mode_name)
                       if t.trigger is not None]
        if not transitions:
            return transitions, []
        stack = PolynomialStack(
            [t.trigger.with_variables(self.system.state_variables)
             for t in transitions],
            self.system.state_variables,
        )
        memo: Dict[str, object] = {"key": None, "values": None}

        def trigger_values(t: float, y: np.ndarray) -> np.ndarray:
            key = (t, y.tobytes())
            if memo["key"] != key:
                memo["key"] = key
                memo["values"] = stack.evaluate(y)
            return memo["values"]

        events = []
        for index in range(len(transitions)):
            def event(t, y, _index=index):
                return float(trigger_values(t, np.asarray(y, dtype=float))[_index])

            event.terminal = True
            event.direction = 1.0  # fire when the trigger crosses zero from below
            events.append(event)
        return transitions, events

    # ------------------------------------------------------------------
    def simulate(
        self,
        initial_state: Sequence[float],
        initial_mode: Optional[str] = None,
        parameters: Optional[Mapping[Variable, float]] = None,
        max_flow_time: Optional[float] = None,
    ) -> SimulationResult:
        # Imported on first use: scipy.integrate brings scipy.optimize and
        # about 19 MB with it, and no engine job or sweep shard simulates.
        from scipy.integrate import solve_ivp

        settings = self.settings
        horizon = max_flow_time if max_flow_time is not None else settings.max_flow_time
        state = np.asarray(initial_state, dtype=float)
        if state.shape != (self.system.num_states,):
            raise ModelError(
                f"initial state has dimension {state.shape}, expected ({self.system.num_states},)"
            )
        params = dict(parameters) if parameters is not None else self.system.nominal_parameters()
        mode_name = self._initial_mode(state, initial_mode)

        arc = HybridArc()
        t_now = 0.0
        jumps = 0
        termination = "max_flow_time"

        while t_now < horizon - 1e-12:
            mode = self.system.mode(mode_name)
            vector_field = mode.vector_field_function(params)
            transitions, events = self._make_events(mode_name)

            def rhs(t, y):
                return vector_field(y)

            solution = solve_ivp(
                rhs, (t_now, horizon), state, events=events or None,
                max_step=settings.max_step, rtol=settings.rtol, atol=settings.atol,
                dense_output=False,
            )
            if not solution.success:  # pragma: no cover - integrator failure is exceptional
                raise ModelError(f"ODE integration failed in mode {mode_name}: {solution.message}")

            times = solution.t
            states = solution.y.T
            if times.size == 0 or times[-1] <= t_now + 1e-15:
                # Zero-duration flow (state already on a guard): record a point segment.
                times = np.array([t_now])
                states = state.reshape(1, -1)

            interval = HybridTimeInterval(t_start=t_now, t_end=float(times[-1]), jump_index=jumps)
            arc.append(ArcSegment(interval=interval, mode=mode_name, times=times, states=states))

            state = states[-1].copy()
            t_now = float(times[-1])

            if settings.terminal_radius is not None and self.system.equilibrium is not None:
                if np.linalg.norm(state - self.system.equilibrium) <= settings.terminal_radius:
                    termination = "converged"
                    break

            fired_index = None
            if solution.status == 1 and events:
                for k, event_times in enumerate(solution.t_events):
                    if event_times.size > 0:
                        fired_index = k
                        break
            if fired_index is None:
                termination = "max_flow_time"
                break

            transition = transitions[fired_index]
            state = transition.apply_reset(state)
            mode_name = transition.target
            jumps += 1
            if jumps >= MAX_JUMPS:
                termination = "max_jumps"
                break
        else:  # pragma: no cover - loop guard exit
            termination = "max_flow_time"

        return SimulationResult(arc=arc, termination=termination, parameters=params)
