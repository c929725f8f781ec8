"""Declarative sweep families: lazy generators over scenario parameter axes.

A *sweep family* names a registered scenario, a set of its declared sweep
axes (see :attr:`repro.scenarios.registry.ScenarioSpec.sweep_axes`) and a
rule for expanding them into concrete parameter points:

* :class:`GridSweep` — the Cartesian product of evenly spaced axis values;
* :class:`MonteCarloSweep` — seeded uniform draws over axis ranges (the same
  seed always reproduces the identical point set, bit for bit);
* :class:`DegradationLadder` — one axis walked through fractions of its
  nominal value, generalising the ``pll3_weak_pump`` scenario (Ip pinned at
  40%) to a continuum like ``Ip ∈ [0.2, 1.0]·nominal``.

Families are registered alongside scenarios (:func:`register_sweep_family`)
and expand lazily — listing thousands of points costs no model builds; the
planner materialises :class:`SweepPoint` parameter dicts and routes them
through the registry's parameter-override path (``spec.build(params=...)``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

#: Axis specification: ``(name, lower, upper, count)``.  ``count`` is the
#: grid resolution (ignored by Monte-Carlo families, which draw ``samples``
#: points from the ``[lower, upper]`` ranges instead).
AxisTuple = Tuple[str, float, float, int]


def _axis(name: str, lower: float, upper: float, count: int) -> AxisTuple:
    if count < 1:
        raise ValueError(f"axis {name!r}: count must be >= 1, got {count}")
    if upper < lower:
        raise ValueError(f"axis {name!r}: upper {upper} < lower {lower}")
    return (str(name), float(lower), float(upper), int(count))


def _axis_values(axis: AxisTuple) -> np.ndarray:
    name, lower, upper, count = axis
    if count == 1:
        return np.asarray([lower])
    return np.linspace(lower, upper, count)


@dataclass(frozen=True)
class SweepPoint:
    """One concrete parameter point of a family."""

    index: int
    params: Tuple[Tuple[str, float], ...]  # sorted by axis name

    @property
    def params_dict(self) -> Dict[str, float]:
        return dict(self.params)

    @staticmethod
    def make(index: int, params: Mapping[str, float]) -> "SweepPoint":
        return SweepPoint(index=index, params=tuple(
            (name, float(params[name])) for name in sorted(params)))


@dataclass(frozen=True)
class SweepFamily:
    """Base of every sweep family (the shared declarative surface).

    Every point is probed under the scenario's registered Gram-cone
    relaxation, the one its anchor certificates were synthesised under.
    """

    name: str
    scenario: str
    description: str = ""
    tags: Tuple[str, ...] = ()

    # -- expansion (overridden by concrete families) -------------------
    def axes(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError

    def points(self) -> Iterator[SweepPoint]:
        raise NotImplementedError

    def parametrization(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(base, steps)`` anchoring the affine conic decomposition.

        The base point and per-axis displacement the planner hands to
        :class:`~repro.sos.parametric.MultiParametricSOSProgram` — by
        convention the lower corner of the axis ranges and their spans.
        """
        raise NotImplementedError

    def reconfigure(self, grid: Optional[Mapping[str, Tuple[float, float, int]]] = None,
                    samples: Optional[int] = None,
                    seed: Optional[int] = None) -> "SweepFamily":
        """A copy with CLI-style overrides (``--grid``/``--samples``/``--seed``)."""
        raise NotImplementedError

    # -- identity ------------------------------------------------------
    def anchor_params(self) -> Dict[str, float]:
        """Parameter overrides of the anchor certificate synthesis.

        Empty by default: the anchor is the registered nominal scenario, so
        a sweep shares its Lyapunov cache entries with ``repro verify``.
        """
        return {}

    def config(self) -> Dict[str, object]:
        """Canonical JSON-able description (drives :meth:`fingerprint`)."""
        data = dataclasses.asdict(self)
        data["kind"] = type(self).__name__
        return data

    def fingerprint(self) -> str:
        """Content address of the family configuration.

        Keys resumable progress files and frontier reports: two runs with
        the same fingerprint enumerate the identical point set.
        """
        blob = json.dumps(self.config(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def summary_row(self) -> Dict[str, object]:
        from ..scenarios.registry import get_scenario

        return {
            "name": self.name,
            "kind": type(self).__name__,
            "scenario": self.scenario,
            "description": self.description,
            "axes": list(self.axes()),
            "points": self.count(),
            "relaxation": get_scenario(self.scenario).relaxation,
            "tags": list(self.tags),
        }

    def _validate_axes(self) -> None:
        """Reject axes the scenario does not declare (at registration time)."""
        from ..scenarios.registry import get_scenario

        declared = set(get_scenario(self.scenario).sweep_axes)
        unknown = sorted(set(self.axes()) - declared)
        if unknown:
            raise ValueError(
                f"sweep family {self.name!r}: scenario {self.scenario!r} "
                f"declares no axes {unknown} (has {sorted(declared)})")


def _merge_grid(axes: Tuple[AxisTuple, ...],
                grid: Mapping[str, Tuple[float, float, int]]
                ) -> Tuple[AxisTuple, ...]:
    known = {axis[0] for axis in axes}
    unknown = sorted(set(grid) - known)
    if unknown:
        raise ValueError(f"--grid names unknown axes {unknown}; "
                         f"family axes: {sorted(known)}")
    merged = []
    for name, lower, upper, count in axes:
        if name in grid:
            lo, hi, n = grid[name]
            merged.append(_axis(name, lo, hi, n))
        else:
            merged.append((name, lower, upper, count))
    return tuple(merged)


@dataclass(frozen=True)
class GridSweep(SweepFamily):
    """Cartesian product of evenly spaced values on every axis.

    Points are enumerated row-major in declared axis order (the first axis
    varies slowest), so indices are stable across runs and shard counts.
    """

    grid_axes: Tuple[AxisTuple, ...] = ()

    def __post_init__(self) -> None:
        if not self.grid_axes:
            raise ValueError(f"grid family {self.name!r} declares no axes")

    def axes(self) -> Tuple[str, ...]:
        return tuple(axis[0] for axis in self.grid_axes)

    def count(self) -> int:
        total = 1
        for axis in self.grid_axes:
            total *= axis[3]
        return total

    def points(self) -> Iterator[SweepPoint]:
        values = [_axis_values(axis) for axis in self.grid_axes]
        names = self.axes()
        for index, combo in enumerate(itertools.product(*values)):
            yield SweepPoint.make(index, dict(zip(names, map(float, combo))))

    def parametrization(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        base = {axis[0]: axis[1] for axis in self.grid_axes}
        steps = {axis[0]: (axis[2] - axis[1]) for axis in self.grid_axes}
        return base, steps

    def reconfigure(self, grid=None, samples=None, seed=None) -> "GridSweep":
        family = self
        if grid:
            family = dataclasses.replace(
                family, grid_axes=_merge_grid(family.grid_axes, grid))
        # samples/seed have no meaning on a grid; ignoring them silently
        # would make `--samples` a no-op typo trap.
        if samples is not None or seed is not None:
            raise ValueError(
                f"family {self.name!r} is a grid; use --grid, not "
                "--samples/--seed")
        return family


@dataclass(frozen=True)
class MonteCarloSweep(SweepFamily):
    """Seeded uniform draws over axis ranges.

    The full point set is drawn in one ``default_rng(seed)`` pass, so the
    same (ranges, samples, seed) triple reproduces identical points on any
    machine, process count or resume boundary.
    """

    ranges: Tuple[AxisTuple, ...] = ()   # count field unused
    samples: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValueError(f"Monte-Carlo family {self.name!r} declares no axes")
        if self.samples < 1:
            raise ValueError(f"family {self.name!r}: samples must be >= 1")

    def axes(self) -> Tuple[str, ...]:
        return tuple(axis[0] for axis in self.ranges)

    def count(self) -> int:
        return int(self.samples)

    def points(self) -> Iterator[SweepPoint]:
        rng = np.random.default_rng(self.seed)
        lows = np.asarray([axis[1] for axis in self.ranges])
        highs = np.asarray([axis[2] for axis in self.ranges])
        draws = rng.uniform(lows, highs, size=(self.samples, len(self.ranges)))
        names = self.axes()
        for index in range(self.samples):
            yield SweepPoint.make(
                index, dict(zip(names, map(float, draws[index]))))

    def parametrization(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        base = {axis[0]: axis[1] for axis in self.ranges}
        steps = {axis[0]: (axis[2] - axis[1]) for axis in self.ranges}
        return base, steps

    def reconfigure(self, grid=None, samples=None, seed=None) -> "MonteCarloSweep":
        family = self
        if grid:
            family = dataclasses.replace(
                family, ranges=_merge_grid(family.ranges, grid))
        if samples is not None:
            family = dataclasses.replace(family, samples=int(samples))
        if seed is not None:
            family = dataclasses.replace(family, seed=int(seed))
        return family


@dataclass(frozen=True)
class DegradationLadder(SweepFamily):
    """One axis walked through fractions of its nominal value.

    ``fractions = linspace(lower, upper, steps)``; each point overrides the
    axis to ``fraction · nominal`` where the nominal comes from the
    scenario's declared sweep axes.  ``pll3_weak_pump`` (Ip aged to 40%) is
    the single rung ``lower = upper = 0.4`` of the Ip ladder.
    """

    axis: str = ""
    lower: float = 0.2
    upper: float = 1.0
    steps: int = 9

    def __post_init__(self) -> None:
        if not self.axis:
            raise ValueError(f"ladder family {self.name!r} names no axis")
        if self.steps < 1:
            raise ValueError(f"family {self.name!r}: steps must be >= 1")
        if self.upper < self.lower:
            raise ValueError(
                f"family {self.name!r}: upper {self.upper} < lower {self.lower}")

    def axes(self) -> Tuple[str, ...]:
        return (self.axis,)

    def count(self) -> int:
        return int(self.steps)

    def _nominal(self) -> float:
        from ..scenarios.registry import get_scenario

        return float(get_scenario(self.scenario).sweep_axes[self.axis])

    def fractions(self) -> np.ndarray:
        return _axis_values((self.axis, self.lower, self.upper, self.steps))

    def points(self) -> Iterator[SweepPoint]:
        nominal = self._nominal()
        for index, fraction in enumerate(self.fractions()):
            yield SweepPoint.make(index, {self.axis: float(fraction) * nominal})

    def parametrization(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        nominal = self._nominal()
        base = {self.axis: self.lower * nominal}
        steps = {self.axis: (self.upper - self.lower) * nominal}
        return base, steps

    def reconfigure(self, grid=None, samples=None, seed=None) -> "DegradationLadder":
        family = self
        if grid:
            unknown = sorted(set(grid) - {self.axis})
            if unknown:
                raise ValueError(
                    f"--grid names unknown axes {unknown}; family axis: "
                    f"[{self.axis!r}] (values are fractions of nominal)")
            lo, hi, n = grid[self.axis]
            family = dataclasses.replace(
                family, lower=float(lo), upper=float(hi), steps=int(n))
        if samples is not None:
            family = dataclasses.replace(family, steps=int(samples))
        if seed is not None:
            raise ValueError(
                f"family {self.name!r} is deterministic; --seed does not apply")
        return family


# ----------------------------------------------------------------------
# Registry (mirrors the scenario registry's shape)
# ----------------------------------------------------------------------
_FAMILIES: Dict[str, SweepFamily] = {}


def register_sweep_family(family: SweepFamily,
                          overwrite: bool = False) -> SweepFamily:
    """Register a family under its name (validating axes against the scenario)."""
    if family.name in _FAMILIES and not overwrite:
        raise ValueError(f"sweep family {family.name!r} is already registered")
    family._validate_axes()
    _FAMILIES[family.name] = family
    return family


def get_sweep_family(name: str) -> SweepFamily:
    _ensure_catalog()
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep family {name!r}; available: "
            f"{sweep_family_names()}") from None


def all_sweep_families() -> Tuple[SweepFamily, ...]:
    _ensure_catalog()
    return tuple(_FAMILIES[name] for name in sorted(_FAMILIES))


def sweep_family_names() -> Tuple[str, ...]:
    _ensure_catalog()
    return tuple(sorted(_FAMILIES))


def _ensure_catalog() -> None:
    # Built-in families live in .catalog; importing it registers them.
    from . import catalog  # noqa: F401
