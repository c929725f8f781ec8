"""Normalisation between physical and verification coordinates.

The paper normalises phases by ``2*pi``; this module extends that to a full
nondimensionalisation so the SOS programs see well-conditioned numbers:

* **time** is measured in reference cycles: ``tau = t * f_ref``;
* **phases** are measured in cycles (i.e. divided by ``2*pi``), so the phase
  difference state ``e = (phi_ref - phi_vco) / 2*pi``;
* **voltages** are deviations from the locked control voltage, optionally
  divided by a voltage scale.

The mapping is an invertible affine change of variables, so certificates
computed in normalised coordinates translate back to physical coordinates
exactly (their level sets map through the same affine map).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..exceptions import ModelError
from .parameters import PLLParameters


@dataclass(frozen=True)
class StateScaling:
    """Affine map between physical states and normalised verification states.

    ``x_norm = (x_phys - offset) / scale`` componentwise, and time is
    multiplied by ``time_scale`` (``tau = t * time_scale``).
    """

    state_names: Tuple[str, ...]
    offset: Tuple[float, ...]
    scale: Tuple[float, ...]
    time_scale: float

    def __post_init__(self) -> None:
        if not (len(self.state_names) == len(self.offset) == len(self.scale)):
            raise ModelError("scaling vectors must have matching lengths")
        if any(s <= 0 for s in self.scale):
            raise ModelError("state scales must be strictly positive")
        if self.time_scale <= 0:
            raise ModelError("time scale must be strictly positive")

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    # ------------------------------------------------------------------
    def to_normalized(self, physical: Sequence[float]) -> np.ndarray:
        physical = np.asarray(physical, dtype=float)
        return (physical - np.array(self.offset)) / np.array(self.scale)

    def to_physical(self, normalized: Sequence[float]) -> np.ndarray:
        normalized = np.asarray(normalized, dtype=float)
        return normalized * np.array(self.scale) + np.array(self.offset)

    def time_to_normalized(self, t_seconds: float) -> float:
        return t_seconds * self.time_scale

    def describe(self) -> str:
        rows = ", ".join(
            f"{name}: (x-{off:g})/{sc:g}"
            for name, off, sc in zip(self.state_names, self.offset, self.scale)
        )
        return f"StateScaling(tau = t*{self.time_scale:g}; {rows})"


def verification_scaling(parameters: PLLParameters, voltage_scale: float = 1.0) -> StateScaling:
    """The scaling used by the verification models.

    Voltages are shifted by the lock voltage and divided by ``voltage_scale``
    (default 1 V — the paper's figures are in volts); the phase difference is
    already dimensionless and unshifted; time is in reference cycles.
    """
    v_lock = parameters.lock_voltage()
    if parameters.order == 3:
        names = ("v1", "v2", "e")
        offsets = (v_lock, v_lock, 0.0)
        scales = (voltage_scale, voltage_scale, 1.0)
    else:
        names = ("v1", "v2", "v3", "e")
        offsets = (v_lock, v_lock, v_lock, 0.0)
        scales = (voltage_scale, voltage_scale, voltage_scale, 1.0)
    return StateScaling(
        state_names=names,
        offset=offsets,
        scale=scales,
        time_scale=parameters.f_ref.center,
    )


def normalized_rate_constants(parameters: PLLParameters,
                              values: Dict[str, float] | None = None) -> Dict[str, float]:
    """Dimensionless rate constants of the normalised dynamics.

    Keys: ``a1 = 1/(R C1 f_ref)``, ``a2 = 1/(R C2 f_ref)``, ``pump = Ip/(C2 f_ref)``,
    ``kv = K_vco/(N f_ref)`` and for order 4 additionally ``a23 = 1/(R2 C2 f_ref)``,
    ``a3 = 1/(R2 C3 f_ref)``.  All are O(1)-O(10) for the paper's parameters,
    which is what keeps the SOS Gram matrices well conditioned.
    """
    p = values or parameters.nominal()
    f_ref = p["f_ref"]
    constants = {
        "a1": 1.0 / (p["r"] * p["c1"] * f_ref),
        "a2": 1.0 / (p["r"] * p["c2"] * f_ref),
        "pump": p["i_p"] / (p["c2"] * f_ref),
        "kv": p["k_vco"] / (p["divider"] * f_ref),
    }
    if parameters.order == 4:
        constants["a23"] = 1.0 / (p["r2"] * p["c2"] * f_ref)
        constants["a3"] = 1.0 / (p["r2"] * p["c3"] * f_ref)
    return constants
