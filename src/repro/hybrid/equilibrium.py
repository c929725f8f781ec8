"""Equilibrium computation for hybrid systems with affine mode dynamics."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelError
from ..polynomial import Variable
from .mode import Mode
from .system import HybridSystem


def linearize_mode(mode: Mode,
                   parameters: Optional[Mapping[Variable, float]] = None,
                   point: Optional[Sequence[float]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(A, b)`` with ``f(x) ≈ A (x - point) + b`` around ``point``.

    For affine flow maps the result is exact and independent of ``point``.
    """
    n = mode.num_states
    point = np.zeros(n) if point is None else np.asarray(point, dtype=float)
    field = mode.flow_map_with_parameters(parameters or {})
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i, component in enumerate(field):
        b[i] = component.evaluate(point)
        for j in range(n):
            A[i, j] = component.differentiate(j).evaluate(point)
    return A, b


def affine_equilibrium(mode: Mode,
                       parameters: Optional[Mapping[Variable, float]] = None) -> np.ndarray:
    """Solve ``A x + c = 0`` for a mode with affine dynamics.

    For rank-deficient ``A`` (common in PLL models where the phase difference
    does not feed back within a mode) the minimum-norm solution is returned.
    """
    A, b_at_zero = linearize_mode(mode, parameters, point=None)
    # f(x) = A x + c with c = f(0)
    c = b_at_zero
    solution, *_ = np.linalg.lstsq(A, -c, rcond=None)
    return solution


def find_equilibrium(system: HybridSystem,
                     mode_name: Optional[str] = None,
                     parameters: Optional[Mapping[Variable, float]] = None,
                     initial_guess: Optional[Sequence[float]] = None) -> np.ndarray:
    """Numerically locate an equilibrium point (Definition 3 of the paper).

    Searches the requested mode (or the declared equilibrium modes) for a
    state where the flow map vanishes, using a least-squares root find seeded
    by the affine solution.
    """
    # Imported on first use: scipy.optimize is about 16 MB, and only
    # callers that locate an equilibrium numerically need it.
    from scipy.optimize import least_squares

    parameters = parameters or system.nominal_parameters()
    candidates = [system.mode(mode_name)] if mode_name else list(system.equilibrium_modes())
    if not candidates:
        candidates = list(system.modes)
    last_error: Optional[str] = None
    for mode in candidates:
        field = mode.flow_map_with_parameters(parameters)

        def residual(x):
            return np.array([poly.evaluate(x) for poly in field])

        guess = np.asarray(initial_guess, dtype=float) if initial_guess is not None \
            else affine_equilibrium(mode, parameters)
        result = least_squares(residual, guess, xtol=1e-14, ftol=1e-14, gtol=1e-14)
        if result.success and np.linalg.norm(result.fun) < 1e-8:
            return result.x
        last_error = f"mode {mode.name!r}: residual {np.linalg.norm(result.fun):.3e}"
    raise ModelError(f"no equilibrium found ({last_error})")


def equilibrium_residual(system: HybridSystem, state: Sequence[float],
                         parameters: Optional[Mapping[Variable, float]] = None) -> float:
    """Smallest flow-map norm over all modes admitting the state."""
    parameters = parameters or system.nominal_parameters()
    best = np.inf
    for mode in system.modes:
        drift = mode.drift_at(state, parameters)
        best = min(best, float(np.linalg.norm(drift)))
    return best
