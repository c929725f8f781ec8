"""Event-driven behavioural simulation of the full CP PLL.

Unlike the *verification model* (difference coordinates, sign-of-``e`` flow
sets), the behavioural simulator keeps both phases explicitly and emulates the
real tri-state PFD edge logic, which is the ground truth the paper's hybrid
abstraction stands for.  It is used to

* cross-validate the verification pipeline (trajectories must enter and stay
  in the computed attractive invariant, the Lyapunov certificates must be
  non-increasing along projected trajectories), and
* drive the example applications (start-up and lock-recovery studies).

Time is normalised to reference cycles so a simulation of a few hundred
cycles is instantaneous regardless of the physical reference frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ModelError
from .components import (
    ChargePump,
    FrequencyDivider,
    LoopFilter,
    PhaseFrequencyDetector,
    ReferenceOscillator,
    VoltageControlledOscillator,
)
from .parameters import PLLParameters


@dataclass
class BehavioralTrace:
    """Sampled output of a behavioural simulation (normalised time, cycles, volts)."""

    times: np.ndarray
    voltages: np.ndarray           # shape (m, filter order)
    phase_error: np.ndarray        # unwrapped (phi_ref - phi_div) in cycles
    pfd_state: np.ndarray          # -1 / 0 / +1 per sample
    lock_voltage: float
    parameter_values: Dict[str, float]

    @property
    def control_voltage(self) -> np.ndarray:
        return self.voltages[:, -1] if self.voltages.shape[1] == 3 else self.voltages[:, 1]

    def final_phase_error(self) -> float:
        return float(self.phase_error[-1])

    def to_difference_coordinates(self) -> np.ndarray:
        """Project onto the verification-model states ``(v_i - v_lock, ..., e)``."""
        deviations = self.voltages - self.lock_voltage
        return np.column_stack([deviations, self.phase_error])

    def settled(self, voltage_tolerance: float = 5e-2, phase_tolerance: float = 5e-2,
                window: int = 50) -> bool:
        """True when the tail of the trace is within tolerance of lock."""
        if self.times.shape[0] < window:
            return False
        tail_v = np.abs(self.voltages[-window:, :] - self.lock_voltage)
        tail_e = np.abs(self.phase_error[-window:])
        return bool(tail_v.max() <= voltage_tolerance and tail_e.max() <= phase_tolerance)


class BehavioralPLLSimulator:
    """Event-driven simulator of the full CP PLL behavioural model."""

    def __init__(self, parameters: PLLParameters,
                 values: Optional[Dict[str, float]] = None):
        self.parameters = parameters
        self.values = dict(values) if values is not None else parameters.nominal()
        missing = set(parameters.named_intervals()) - set(self.values)
        if missing:
            raise ModelError(f"missing parameter values: {sorted(missing)}")

        p = self.values
        self.reference = ReferenceOscillator(p["f_ref"])
        self.charge_pump = ChargePump(p["i_p"])
        if parameters.order == 3:
            self.loop_filter = LoopFilter(c1=p["c1"], c2=p["c2"], r=p["r"])
        else:
            self.loop_filter = LoopFilter(c1=p["c1"], c2=p["c2"], r=p["r"],
                                          c3=p["c3"], r2=p["r2"])
        self.vco = VoltageControlledOscillator(k_vco=p["k_vco"], f_free=parameters.f_free)
        self.divider = FrequencyDivider(p["divider"])

    # ------------------------------------------------------------------
    @property
    def lock_voltage(self) -> float:
        return self.vco.control_for_frequency(self.values["divider"] * self.values["f_ref"])

    def _rhs(self, pump_sign: int):
        """Normalised-time right-hand side for ``y = [theta_ref, theta_div, v...]``."""
        f_ref = self.values["f_ref"]
        pump_current = self.charge_pump.current(pump_sign)

        def rhs(tau, y):
            voltages = y[2:]
            control = self.loop_filter.control_voltage(voltages)
            f_div = self.divider.divided_frequency(self.vco.frequency(control))
            dvolt = self.loop_filter.derivatives(voltages, pump_current) / f_ref
            return np.concatenate([[1.0, f_div / f_ref], dvolt])

        return rhs

    # ------------------------------------------------------------------
    def simulate(
        self,
        initial_voltages: Sequence[float],
        initial_phase_error: float = 0.0,
        duration_cycles: float = 400.0,
        max_step_cycles: float = 0.05,
        record_stride: int = 1,
    ) -> BehavioralTrace:
        """Simulate for ``duration_cycles`` reference cycles.

        ``initial_phase_error`` (cycles) is applied by offsetting the divider
        phase; ``initial_voltages`` are the physical filter voltages.
        """
        # Imported on first use, as in HybridSimulator.simulate.
        from scipy.integrate import solve_ivp

        order = self.loop_filter.order
        initial_voltages = np.asarray(initial_voltages, dtype=float)
        if initial_voltages.shape[0] != order:
            raise ModelError(f"expected {order} initial voltages, got {initial_voltages.shape[0]}")

        pfd = PhaseFrequencyDetector()
        theta_ref = 0.0
        theta_div = float(np.clip(-initial_phase_error, 0.0, 0.999999)) \
            if initial_phase_error <= 0 else 0.0
        # A positive initial phase error means the reference leads: start the
        # reference part-way through its cycle instead.
        if initial_phase_error > 0:
            theta_ref = float(np.clip(initial_phase_error, 0.0, 0.999999))

        # Unwrapped cycle counters used to reconstruct the continuous phase error.
        ref_cycles = 0.0
        div_cycles = 0.0

        times: List[float] = []
        volt_samples: List[np.ndarray] = []
        error_samples: List[float] = []
        pfd_samples: List[int] = []

        y = np.concatenate([[theta_ref, theta_div], initial_voltages])
        tau = 0.0

        def ref_edge(t, state):
            return state[0] - 1.0

        def div_edge(t, state):
            return state[1] - 1.0

        ref_edge.terminal = True
        ref_edge.direction = 1.0
        div_edge.terminal = True
        div_edge.direction = 1.0

        while tau < duration_cycles - 1e-12:
            rhs = self._rhs(pfd.output)
            solution = solve_ivp(
                rhs, (tau, duration_cycles), y, events=[ref_edge, div_edge],
                max_step=max_step_cycles, rtol=1e-9, atol=1e-12,
            )
            if not solution.success:  # pragma: no cover
                raise ModelError(f"behavioural integration failed: {solution.message}")

            seg_times = solution.t[::record_stride]
            seg_states = solution.y.T[::record_stride]
            for t_k, y_k in zip(seg_times, seg_states):
                times.append(float(t_k))
                volt_samples.append(y_k[2:].copy())
                error_samples.append((ref_cycles + y_k[0]) - (div_cycles + y_k[1]))
                pfd_samples.append(pfd.output)

            y = solution.y[:, -1].copy()
            tau = float(solution.t[-1])

            if solution.status != 1:
                break
            ref_fired = solution.t_events[0].size > 0
            div_fired = solution.t_events[1].size > 0
            if ref_fired:
                ref_cycles += 1.0
                y[0] -= 1.0
                pfd.on_reference_edge()
            if div_fired:
                div_cycles += 1.0
                y[1] -= 1.0
                pfd.on_divider_edge()

        return BehavioralTrace(
            times=np.array(times),
            voltages=np.array(volt_samples),
            phase_error=np.array(error_samples),
            pfd_state=np.array(pfd_samples),
            lock_voltage=self.lock_voltage,
            parameter_values=dict(self.values),
        )

    # ------------------------------------------------------------------
    def simulate_from_difference_state(self, difference_state: Sequence[float],
                                       duration_cycles: float = 400.0,
                                       **kwargs) -> BehavioralTrace:
        """Simulate from a verification-model state ``(v deviations..., e)``."""
        difference_state = np.asarray(difference_state, dtype=float)
        order = self.loop_filter.order
        if difference_state.shape[0] != order + 1:
            raise ModelError(
                f"expected {order + 1} difference-coordinate states, "
                f"got {difference_state.shape[0]}"
            )
        voltages = difference_state[:order] + self.lock_voltage
        return self.simulate(voltages, initial_phase_error=float(difference_state[-1]),
                             duration_cycles=duration_cycles, **kwargs)
