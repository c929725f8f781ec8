"""Shared machinery for building CP PLL verification hybrid models.

Both the third- and fourth-order builders produce the same structure:

* three PFD modes (``mode1`` idle, ``mode2`` pump up, ``mode3`` pump down)
  whose affine dynamics differ only in the charge-pump term;
* flow sets expressed through the sign of the phase difference ``e``;
* identity-reset transitions between ``mode1`` and the pumping modes
  (Remark 1 of the paper: using the phase *difference* as a state makes all
  jump maps identities);
* optional uncertain parameters (the dimensionless rate constants) with
  interval bounds derived from Table 1 by interval arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ModelError
from ..hybrid import HybridSystem, Mode, Transition
from ..polynomial import Polynomial, Variable, VariableVector, make_variables
from ..sos import SemialgebraicSet
from ..utils import Interval
from .model import MODE_IDLE, MODE_PUMP_DOWN, MODE_PUMP_UP, RegionOfInterest
from .parameters import PLLParameters

UNCERTAINTY_MODES = ("none", "pump", "full")


def rate_constant_intervals(parameters: PLLParameters,
                            voltage_scale: float = 1.0) -> Dict[str, Interval]:
    """Interval enclosures of the dimensionless rate constants.

    Uses plain interval arithmetic over the Table 1 parameter boxes, which is
    exact here because every constant is a product/quotient of independent
    parameters.
    """
    f_ref = parameters.f_ref
    intervals = {
        "a1": 1.0 / (parameters.r * parameters.c1 * f_ref),
        "a2": 1.0 / (parameters.r * parameters.c2 * f_ref),
        "pump": parameters.i_p / (parameters.c2 * f_ref) / voltage_scale,
        "kv": parameters.k_vco * voltage_scale / (parameters.divider * f_ref),
    }
    if parameters.order == 4:
        intervals["a23"] = 1.0 / (parameters.r2 * parameters.c2 * f_ref)
        intervals["a3"] = 1.0 / (parameters.r2 * parameters.c3 * f_ref)
    return intervals


def _resolve_constants(
    intervals: Dict[str, Interval],
    uncertainty: str,
    full_vars: Dict[str, Variable],
) -> Dict[str, object]:
    """Map each rate constant to either a float (nominal) or a parameter Variable."""
    if uncertainty not in UNCERTAINTY_MODES:
        raise ModelError(
            f"unknown uncertainty mode {uncertainty!r}; expected one of {UNCERTAINTY_MODES}"
        )
    resolved: Dict[str, object] = {}
    for name, interval in intervals.items():
        uncertain = (
            uncertainty == "full" and not interval.is_degenerate()
        ) or (uncertainty == "pump" and name == "pump" and not interval.is_degenerate())
        resolved[name] = full_vars[name] if uncertain else interval.center
    return resolved


def _term(variables: VariableVector, constant: object, expression: Polynomial) -> Polynomial:
    """``constant * expression`` where ``constant`` is a float or a parameter Variable."""
    if isinstance(constant, Variable):
        return Polynomial.from_variable(constant, variables) * expression
    return expression * float(constant)


def build_pll_hybrid_system(
    parameters: PLLParameters,
    region: RegionOfInterest,
    uncertainty: str = "pump",
    voltage_scale: float = 1.0,
    name: Optional[str] = None,
) -> Tuple[HybridSystem, Dict[str, float], Dict[str, Interval]]:
    """Construct the normalised difference-coordinate hybrid system.

    Returns ``(system, nominal_rate_constants, rate_constant_intervals)``.
    """
    intervals = rate_constant_intervals(parameters, voltage_scale=voltage_scale)
    nominal = {name_: interval.center for name_, interval in intervals.items()}

    if parameters.order == 3:
        state_names = ("v1", "v2", "e")
    else:
        state_names = ("v1", "v2", "v3", "e")
    state_vars = VariableVector(make_variables(*state_names))

    # Parameter variables (only those actually used become part of the system).
    param_var_pool = {key: Variable(f"u_{key}") for key in intervals}
    constants = _resolve_constants(intervals, uncertainty, param_var_pool)
    used_params = [param_var_pool[key] for key in intervals
                   if isinstance(constants[key], Variable)]
    param_vars = VariableVector(used_params)
    param_intervals = {param_var_pool[key]: intervals[key]
                       for key in intervals if isinstance(constants[key], Variable)}

    all_vars = state_vars.union(param_vars)
    x = {name_: Polynomial.from_variable(state_vars[i], all_vars)
         for i, name_ in enumerate(state_names)}

    def drift_common() -> List[Polynomial]:
        """Charge-pump-free part of the vector field (identical in every mode)."""
        if parameters.order == 3:
            dv1 = _term(all_vars, constants["a1"], x["v2"] - x["v1"])
            dv2 = _term(all_vars, constants["a2"], x["v1"] - x["v2"])
            de = -_term(all_vars, constants["kv"], x["v2"])
            return [dv1, dv2, de]
        dv1 = _term(all_vars, constants["a1"], x["v2"] - x["v1"])
        dv2 = (_term(all_vars, constants["a2"], x["v1"] - x["v2"])
               + _term(all_vars, constants["a23"], x["v3"] - x["v2"]))
        dv3 = _term(all_vars, constants["a3"], x["v2"] - x["v3"])
        de = -_term(all_vars, constants["kv"], x["v3"])
        return [dv1, dv2, dv3, de]

    def with_pump(sign: float) -> Tuple[Polynomial, ...]:
        field = drift_common()
        pump_term = _term(all_vars, constants["pump"], Polynomial.constant(all_vars, sign))
        field[1] = field[1] + pump_term
        return tuple(field)

    phase = Polynomial.from_variable(state_vars[len(state_names) - 1], state_vars)
    pb = region.phase_bound

    idle_set = SemialgebraicSet(
        state_vars,
        inequalities=(pb - phase, phase + pb),
        name=f"{MODE_IDLE}_flowset",
    )
    up_set = SemialgebraicSet(
        state_vars,
        inequalities=(phase, pb - phase),
        name=f"{MODE_PUMP_UP}_flowset",
    )
    down_set = SemialgebraicSet(
        state_vars,
        inequalities=(-phase, phase + pb),
        name=f"{MODE_PUMP_DOWN}_flowset",
    )

    modes = (
        Mode(name=MODE_IDLE, index=1, state_variables=state_vars,
             flow_map=tuple(drift_common()), flow_set=idle_set,
             parameter_variables=param_vars, contains_equilibrium=True),
        Mode(name=MODE_PUMP_UP, index=2, state_variables=state_vars,
             flow_map=with_pump(+1.0), flow_set=up_set,
             parameter_variables=param_vars),
        Mode(name=MODE_PUMP_DOWN, index=3, state_variables=state_vars,
             flow_map=with_pump(-1.0), flow_set=down_set,
             parameter_variables=param_vars),
    )

    # Identity-reset transitions; guards over-approximate the PFD edge events in
    # difference coordinates, which drop the reference waveform that fixes the
    # exact edge instants, so each guard is the whole strip where the phase
    # error has the new sign.  Triggers give the simulator an executable
    # abstraction.
    up_guard = SemialgebraicSet(state_vars, inequalities=(phase, pb - phase),
                                name="guard_e_nonneg")
    down_guard = SemialgebraicSet(state_vars, inequalities=(-phase, phase + pb),
                                  name="guard_e_nonpos")
    transitions = (
        Transition(source=MODE_IDLE, target=MODE_PUMP_UP, state_variables=state_vars,
                   guard_set=up_guard, trigger=phase),
        Transition(source=MODE_IDLE, target=MODE_PUMP_DOWN, state_variables=state_vars,
                   guard_set=down_guard, trigger=-phase),
        Transition(source=MODE_PUMP_UP, target=MODE_IDLE, state_variables=state_vars,
                   guard_set=down_guard, trigger=-phase),
        Transition(source=MODE_PUMP_DOWN, target=MODE_IDLE, state_variables=state_vars,
                   guard_set=up_guard, trigger=phase),
    )

    system = HybridSystem(
        name=name or f"cp_pll_order{parameters.order}",
        state_variables=state_vars,
        modes=modes,
        transitions=transitions,
        parameter_variables=param_vars,
        parameter_intervals=param_intervals,
        equilibrium=np.zeros(len(state_names)),
    )
    return system, nominal, intervals
