"""Simulation-based falsification and cross-validation of verification claims.

The SOS pipeline is only as trustworthy as its numerical certificates, so the
library ships an independent check: simulate the system (verification-model
abstraction or full behavioural PLL), project the trajectories into the
certificate coordinates, and test the claims directly —

* trajectories starting inside the attractive invariant must converge to the
  lock neighbourhood and must never leave the invariant;
* the per-mode Lyapunov certificates must be non-increasing along in-mode
  flow segments (up to the configured tolerance);
* trajectories starting in the outer set must reach the invariant within the
  bounded time implied by the advection iterations.

A failed check is reported as a :class:`FalsificationFinding` with the
offending trajectory so it can be inspected or turned into a regression test.

The trajectories come from forward Euler on the relay abstraction, whose
mode fields are affine.  :func:`simulate_relay_abstraction` propagates them
exactly many steps at a time: within one mode, ``j`` Euler steps are one
precomputed affine map, and a block ends at the first state that switches
mode.  The result differs from the step-by-step recursion only by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.attractive import AttractiveInvariant
from ..pll.model import PLLVerificationModel
from ..polynomial import Polynomial

RelayTrajectory = np.ndarray  # shape (steps + 1, n) or (B, steps + 1, n)


@dataclass
class FalsificationFinding:
    """One violated claim discovered by simulation."""

    claim: str
    initial_state: np.ndarray
    worst_value: float
    step_index: int

    def __str__(self) -> str:
        return (f"{self.claim}: violation {self.worst_value:.3e} at step {self.step_index} "
                f"from x0={np.round(self.initial_state, 4).tolist()}")


def _step_count(duration: float, dt: float) -> int:
    """Euler steps that cover ``duration``, rounded (0.3 / 0.1 is 3 steps, not 2)."""
    return int(round(duration / dt))


#: Steps one iteration of the relay integrator advances a row at most.
_BLOCK_STEPS = 256

#: The integrator's mode order: index 0 is ``e > 0``, 1 is ``e < 0`` and 2
#: is the ``e = 0`` sliding surface.
_RELAY_MODES = ("mode2", "mode3", "mode1")


def _relay_mode(e: np.ndarray) -> np.ndarray:
    """Index into :data:`_RELAY_MODES` of the mode the sign of ``e`` picks."""
    return 2 - 2 * (e > 0) - (e < 0)


def _affine_field(name: str, field: Sequence[Polynomial],
                  variables) -> Tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` with ``field(x) = A x + b``, read from the coefficients."""
    units = np.eye(len(variables), dtype=int)
    linear, offset = [], []
    for component in field:
        component = component.with_variables(variables)
        if component.degree > 1:
            raise ValueError(
                f"the relay abstraction needs affine mode fields, but {name} "
                f"has degree {component.degree}")
        linear.append([component.coefficient(unit) for unit in units])
        offset.append(component.constant_term())
    return np.array(linear), np.array(offset)


def _block_maps(model: PLLVerificationModel,
                dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Every mode's first :data:`_BLOCK_STEPS` Euler steps as affine maps.

    Returns ``powers`` of shape ``(3, L, n, n)`` and ``offsets`` of shape
    ``(3, L, n)`` in :data:`_RELAY_MODES` order: ``j`` steps in mode ``m``
    take ``x`` to ``powers[m, j-1] @ x + offsets[m, j-1]``, that is
    ``M^j x + Σ_{i<j} M^i dt b`` with ``M = I + dt A``.
    """
    fields = model.nominal_fields()
    variables = model.state_variables
    n = len(variables)
    powers = np.empty((3, _BLOCK_STEPS, n, n))
    offsets = np.empty((3, _BLOCK_STEPS, n))
    for m, name in enumerate(_RELAY_MODES):
        linear, offset = _affine_field(name, fields[name], variables)
        powers[m, 0], offsets[m, 0] = np.eye(n) + dt * linear, dt * offset
        # Doubling: a + b steps are b steps after a, so with the maps of
        # 1..a steps known, those of a+1..2a follow in one stacked product.
        a = 1
        while a < _BLOCK_STEPS:
            b = min(a, _BLOCK_STEPS - a)
            powers[m, a:a + b] = powers[m, :b] @ powers[m, a - 1]
            offsets[m, a:a + b] = powers[m, :b] @ offsets[m, a - 1] + offsets[m, :b]
            a += b
    return powers, offsets


def simulate_relay_abstraction(model: PLLVerificationModel,
                               initial_state: Sequence[float],
                               duration: float = 60.0,
                               dt: float = 1e-3) -> RelayTrajectory:
    """Forward-Euler simulation of the sign-of-``e`` switching abstraction.

    This is the executable counterpart of the verification model: the charge
    pump is up whenever the phase difference is positive and down whenever it
    is negative (mode 1 is a measure-zero sliding surface in this abstraction).

    ``initial_state`` is one state, giving a ``(steps + 1, n)`` trajectory, or
    a ``(B, n)`` batch, giving ``(B, steps + 1, n)``.

    Every mode's field is affine, ``A_m x + b_m`` (a field of higher degree
    raises ``ValueError``), so ``j`` Euler steps in one mode are the exact
    affine map ``M_m^j x + Σ_{i<j} M_m^i dt b_m`` with ``M_m = I + dt A_m``.
    Each iteration advances every unfinished row up to 256 steps through its
    mode's precomputed maps, from its own state.  A row keeps the steps up to
    and including the first state whose sign of ``e`` picks another mode,
    and resumes from there in that mode.  So each row switches at its own
    steps, independently of the rest of the batch, and visits the modes the
    step-by-step recursion visits; the states differ from that recursion
    only by rounding.
    """
    powers, offsets = _block_maps(model, dt)
    initial = np.asarray(initial_state, dtype=float)
    batch, n = np.atleast_2d(initial).shape
    steps = _step_count(duration, dt)
    trajectories = np.empty((batch, steps + 1, n))
    trajectories[:, 0] = initial
    done = np.zeros(batch, dtype=int)  # steps each row has filled in
    active = np.flatnonzero(done < steps)
    while active.size:
        x = trajectories[active, done[active]]
        mode = _relay_mode(x[:, -1])
        block = offsets[mode]  # fancy indexing copies
        row_powers = powers[mode]
        for k in range(n):
            block += row_powers[..., k] * x[:, None, None, k]
        # The sign of e picks the mode, so a sign change is a mode change.
        switched = np.sign(block[:, :, -1]) != np.sign(x[:, -1:])
        keep = np.where(switched.any(axis=1), switched.argmax(axis=1) + 1,
                        _BLOCK_STEPS)
        keep = np.minimum(keep, steps - done[active])
        for row, start, count, states in zip(active, done[active], keep, block):
            trajectories[row, start + 1:start + 1 + count] = states[:count]
        done[active] += keep
        active = active[done[active] < steps]
    return trajectories[0] if initial.ndim == 1 else trajectories


def _simulate_states(model: PLLVerificationModel,
                     initial_states: Optional[Sequence[Sequence[float]]],
                     count: int, rng: Optional[np.random.Generator], seed: int,
                     duration: float, dt: float) -> np.ndarray:
    """``(B, steps + 1, n)`` trajectories from the given states, or from ``count``
    states drawn with ``rng``/``seed``; no states give no trajectories."""
    if initial_states is None:
        initial_states = random_initial_states(model, count, rng=rng, seed=seed)
    states = np.asarray(initial_states, dtype=float).reshape(
        -1, len(model.state_variables))
    if states.shape[0] == 0:
        return states[:, None, :]
    return simulate_relay_abstraction(model, states, duration=duration, dt=dt)


def _invariant_convergence_findings(
    invariant: AttractiveInvariant, trajectories: np.ndarray, lock_radius: float,
    tolerance: float, check_invariance: bool, tube_radius: Optional[float],
) -> List[FalsificationFinding]:
    findings: List[FalsificationFinding] = []
    for trajectory in trajectories:
        inside_mask = invariant.contains_points(trajectory) \
            if check_invariance else np.zeros(0, dtype=bool)
        if inside_mask.any():
            first_inside = int(np.argmax(inside_mask))
            later = trajectory[first_inside::25]
            margins = invariant.membership_margins(later)
            if tube_radius is not None:
                off_tube = np.linalg.norm(later[:, :-1], axis=1) > tube_radius
                margins = margins[off_tube]
            worst = float(margins.max()) if margins.size else 0.0
            if worst > tolerance:
                findings.append(FalsificationFinding(
                    claim="forward invariance of X1",
                    initial_state=trajectory[0].copy(),
                    worst_value=worst,
                    step_index=first_inside,
                ))
        final_voltages = trajectory[-1][:-1]
        if np.linalg.norm(final_voltages) > lock_radius:
            findings.append(FalsificationFinding(
                claim="convergence to the lock neighbourhood",
                initial_state=trajectory[0].copy(),
                worst_value=float(np.linalg.norm(final_voltages)),
                step_index=trajectory.shape[0] - 1,
            ))
    return findings


def _decrease_findings(
    certificates: Dict[str, "np.ndarray"], trajectories: np.ndarray,
    tolerance: float, tube_radius: float,
) -> List[FalsificationFinding]:
    findings: List[FalsificationFinding] = []
    for trajectory in trajectories:
        e_values = trajectory[:, -1]
        in_mode = {"mode2": e_values > 1e-6, "mode3": e_values < -1e-6,
                   "mode1": np.abs(e_values) <= 1e-6}
        # Only count decrease where the practical-stability tube does not apply.
        off_tube = np.linalg.norm(trajectory[:, :-1], axis=1) > tube_radius
        for mode_name, certificate in certificates.items():
            mask = in_mode.get(mode_name, in_mode["mode1"]) & off_tube
            if mask.sum() < 3:
                continue
            steps = np.where(mask)[0]
            increases = np.diff(certificate.evaluate_many(trajectory[mask]))
            consecutive = np.diff(steps) == 1
            increases = increases[consecutive]
            if increases.size and float(increases.max()) > tolerance:
                worst = int(np.argmax(increases))
                findings.append(FalsificationFinding(
                    claim=f"V non-increasing along {mode_name} flow",
                    initial_state=trajectory[0].copy(),
                    worst_value=float(increases[worst]),
                    step_index=int(steps[1:][consecutive][worst]),
                ))
    return findings


def check_invariant_convergence(
    model: PLLVerificationModel,
    invariant: AttractiveInvariant,
    initial_states: Optional[Sequence[Sequence[float]]] = None,
    duration: float = 80.0,
    dt: float = 1e-3,
    lock_radius: float = 0.6,
    tolerance: float = 1e-4,
    count: int = 8,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    check_invariance: bool = True,
    tube_radius: Optional[float] = None,
) -> List[FalsificationFinding]:
    """Simulate from each initial state and test convergence / invariance claims.

    ``initial_states`` may be omitted, in which case ``count`` states are
    drawn inside the outer set with the explicit ``rng`` (or ``seed``), making
    a run reproducible end to end without the caller materialising states.

    The invariance claim tests the *union* of the per-mode level sets, which
    is strictly stronger than what per-mode certificates with independent
    levels imply (the union is only guaranteed invariant when the levels are
    cross-mode compatible).  ``check_invariance=False`` skips it;
    ``tube_radius`` exempts samples whose voltage deviation lies inside the
    practical-stability tube, where the decrease condition was deliberately
    not enforced.
    """
    trajectories = _simulate_states(model, initial_states, count, rng, seed,
                                    duration, dt)
    return _invariant_convergence_findings(
        invariant, trajectories, lock_radius, tolerance, check_invariance,
        tube_radius)


def check_certificate_decrease_along_trajectories(
    model: PLLVerificationModel,
    certificates: Dict[str, "np.ndarray"],
    initial_states: Optional[Sequence[Sequence[float]]] = None,
    duration: float = 20.0,
    dt: float = 1e-3,
    tolerance: float = 1e-3,
    count: int = 8,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    tube_radius: float = 0.55,
) -> List[FalsificationFinding]:
    """Check that each mode's certificate is non-increasing during that mode's flow.

    ``certificates`` maps mode name to a numeric polynomial (the synthesised
    Lyapunov function).  Only samples where the trajectory stays in one mode
    between consecutive steps are compared, and only outside the
    practical-stability tube of radius ``tube_radius`` (where the decrease
    condition was enforced).  As with :func:`check_invariant_convergence`,
    omitted ``initial_states`` are drawn with the explicit ``rng``/``seed``.
    A finding's ``step_index`` is the trajectory step at which the worst
    increase ends.
    """
    trajectories = _simulate_states(model, initial_states, count, rng, seed,
                                    duration, dt)
    return _decrease_findings(certificates, trajectories, tolerance, tube_radius)


def run_falsification(
    model: PLLVerificationModel,
    invariant: AttractiveInvariant,
    certificates: Optional[Dict[str, "np.ndarray"]] = None,
    initial_states: Optional[Sequence[Sequence[float]]] = None,
    count: int = 8,
    duration: float = 40.0,
    dt: float = 1e-3,
    lock_radius: float = 0.6,
    tolerance: float = 1e-3,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    check_invariance: bool = False,
    tube_radius: Optional[float] = None,
) -> List[FalsificationFinding]:
    """Run the full simulation cross-check with one explicit random stream.

    Draws ``count`` initial states once and simulates them together, once,
    over ``duration``.  The invariant-convergence claims read the whole
    trajectories and the certificate-decrease claim reads their first 20
    time units, so a campaign is fully determined by (``rng`` | ``seed``) —
    the property the verification engine relies on for reproducible runs.

    ``check_invariance`` defaults to off here: the engine's per-mode levels
    are maximised independently, so the union-invariance claim is stronger
    than the synthesised conditions guarantee (see
    :func:`check_invariant_convergence`).  The claims checked by default —
    convergence to the lock neighbourhood and per-mode certificate decrease
    along in-mode flow — are exactly the ones the certificates assert.

    ``initial_states`` overrides the sampling entirely; callers that must
    distinguish "no findings" from "no states could be sampled" (the engine)
    draw the states themselves and pass them in.
    """
    trajectories = _simulate_states(model, initial_states, count, rng, seed,
                                    duration, dt)
    findings = _invariant_convergence_findings(
        invariant, trajectories, lock_radius, tolerance, check_invariance,
        tube_radius)
    if certificates:
        prefix = trajectories[:, :_step_count(min(duration, 20.0), dt) + 1]
        findings.extend(_decrease_findings(
            certificates, prefix, tolerance,
            tube_radius if tube_radius is not None else 0.55))
    return findings


def random_initial_states(model: PLLVerificationModel, count: int,
                          scale: float = 0.8, seed: int = 0,
                          rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Random initial states inside the outer ellipsoid (scaled by ``scale``).

    An explicit ``rng`` takes precedence over ``seed``, letting callers thread
    one generator through a whole falsification campaign.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    bounds = model.state_bounds()
    states = []
    outer = model.outer_set_polynomial(margin=scale)
    attempts = 0
    while len(states) < count and attempts < 100 * count:
        candidate = np.array([rng.uniform(lo, hi) for lo, hi in bounds]) * scale
        if outer.evaluate(candidate) <= 0.0:
            states.append(candidate)
        attempts += 1
    return np.array(states) if states else np.zeros((0, len(bounds)))
