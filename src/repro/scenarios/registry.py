"""Declarative scenario registry.

A *scenario* is a named, fully specified verification workload: a hybrid (or
continuous) system, certificate degrees, solver options and the outcome the
maintainers expect the pipeline to reach.  Scenarios are registered with the
:func:`register_scenario` decorator at import time and consumed by the
verification engine and the ``python -m repro`` CLI::

    @register_scenario(
        name="my_system",
        description="…",
        certificate_degree=2,
        expected="verified",
    )
    def _build(spec: ScenarioSpec) -> ScenarioProblem:
        return ScenarioProblem(...)

The builder receives its own spec so declarative knobs (degrees, solver
settings) stay in one place and the engine can rebuild problems from the name
alone inside worker processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..sdp import RELAXATIONS
from .problem import ScenarioProblem

#: Allowed values of :attr:`ScenarioSpec.expected`.
EXPECTED_OUTCOMES = ("verified", "property_one", "inconclusive", "any")


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one verification workload.

    Attributes
    ----------
    name:
        Registry key; also the CLI argument of ``python -m repro verify``.
    description:
        One-line human summary shown by ``python -m repro list``.
    builder:
        Callable producing the :class:`~repro.scenarios.problem.ScenarioProblem`;
        invoked lazily (building compiles polynomials, so listing stays cheap).
    certificate_degree / multiplier_degree:
        Headline SOS degrees; the builder threads them into the stage options.
    solver_settings:
        Baseline conic-solver settings shared by every stage of the scenario.
    expected:
        Outcome the registry promises: ``"verified"`` (both properties),
        ``"property_one"`` (attractive invariant only), ``"inconclusive"``
        (known-hard workload) or ``"any"`` (exploratory).
    relaxation:
        Gram-cone relaxation of the certificate pipeline: ``"sos"``
        (default) or ``"chordal"``.  Propagated into the built problem's stage options; the engine/CLI
        ``--relaxation`` override wins over this registered default.
    tags:
        Free-form labels (``"pll"``, ``"power"``, ``"continuous"``, …).
    fast:
        Marks scenarios cheap enough for CI smoke runs and warm-cache tests.
    sweep_axes:
        Declared numeric parameter axes, mapping axis name to its nominal
        value (``{"mu": 1.0}``).  Only declared axes may be overridden via
        :meth:`with_parameters` — the path behind ``verify --param`` and the
        ``repro.sweep`` families.  An empty mapping means the scenario is a
        fixed point in parameter space.
    parameters:
        Active overrides for this spec instance (empty on the registered
        spec; populated by :meth:`with_parameters`).  Builders read effective
        values through :meth:`parameter`.
    """

    name: str
    description: str
    builder: Callable[["ScenarioSpec"], ScenarioProblem]
    certificate_degree: int = 2
    multiplier_degree: int = 2
    solver_settings: Mapping[str, object] = field(default_factory=dict)
    expected: str = "verified"
    relaxation: str = "sos"
    tags: Tuple[str, ...] = ()
    fast: bool = False
    sweep_axes: Mapping[str, float] = field(default_factory=dict)
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.expected not in EXPECTED_OUTCOMES:
            raise ValueError(
                f"scenario {self.name!r}: expected outcome {self.expected!r} "
                f"not in {EXPECTED_OUTCOMES}")
        if self.relaxation not in RELAXATIONS:
            raise ValueError(
                f"scenario {self.name!r}: relaxation {self.relaxation!r} "
                f"not in {RELAXATIONS}")

    def parameter(self, name: str, default: Optional[float] = None) -> float:
        """Effective value of a parameter axis: override > nominal > default.

        Builders call this for every swept knob so the same builder serves
        the registered nominal scenario and every point of a sweep family.
        """
        if name in self.parameters:
            return float(self.parameters[name])
        if name in self.sweep_axes:
            return float(self.sweep_axes[name])
        if default is not None:
            return float(default)
        raise KeyError(
            f"scenario {self.name!r} declares no axis {name!r} and the "
            f"builder gave no default")

    def with_parameters(self, params: Mapping[str, float]) -> "ScenarioSpec":
        """A copy of this spec with parameter overrides applied.

        Every key must be a declared sweep axis — overriding an axis the
        builder would silently ignore is an error, not a no-op.
        """
        if not params:
            return self
        unknown = sorted(set(params) - set(self.sweep_axes))
        if unknown:
            declared = sorted(self.sweep_axes) or ["<none>"]
            raise ValueError(
                f"scenario {self.name!r} has no sweep axes {unknown}; "
                f"declared axes: {declared}")
        merged = dict(self.parameters)
        merged.update({key: float(value) for key, value in params.items()})
        return dataclasses.replace(self, parameters=merged)

    def build(self, relaxation: Optional[str] = None,
              params: Optional[Mapping[str, float]] = None) -> ScenarioProblem:
        """Construct the scenario's verification problem.

        ``relaxation`` overrides this spec's registered Gram-cone relaxation
        (the engine/CLI ``--relaxation`` flag arrives here); ``params``
        overrides declared sweep axes (``verify --param`` and the sweep
        planner arrive here).
        """
        spec = self.with_parameters(params) if params else self
        problem = spec.builder(spec)
        problem.name = self.name
        problem.expected = self.expected
        if relaxation is not None:
            # An explicit override always lands on the stage options, even
            # when it names the default ("sos" must reset a builder that
            # chose another cone itself).
            problem.options.apply_relaxation(relaxation)
        elif self.relaxation != "sos":
            problem.options.apply_relaxation(self.relaxation)
        return problem

    def summary_row(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "degree": self.certificate_degree,
            "expected": self.expected,
            "relaxation": self.relaxation,
            "tags": list(self.tags),
            "fast": self.fast,
            "sweep_axes": sorted(self.sweep_axes),
        }


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(name: str, description: str, *,
                      certificate_degree: int = 2,
                      multiplier_degree: int = 2,
                      solver_settings: Optional[Mapping[str, object]] = None,
                      expected: str = "verified",
                      relaxation: str = "sos",
                      tags: Tuple[str, ...] = (),
                      fast: bool = False,
                      sweep_axes: Optional[Mapping[str, float]] = None,
                      overwrite: bool = False):
    """Decorator registering a scenario builder under ``name``."""

    def decorator(builder: Callable[[ScenarioSpec], ScenarioProblem]):
        if name in _REGISTRY and not overwrite:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            description=description,
            builder=builder,
            certificate_degree=certificate_degree,
            multiplier_degree=multiplier_degree,
            solver_settings=dict(solver_settings or {}),
            expected=expected,
            relaxation=relaxation,
            tags=tuple(tags),
            fast=fast,
            sweep_axes={k: float(v) for k, v in (sweep_axes or {}).items()},
        )
        return builder

    return decorator


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {scenario_names()}") from None


def all_scenarios() -> Tuple[ScenarioSpec, ...]:
    """Every registered scenario, sorted by name (deterministic listings)."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def fast_scenario_names() -> Tuple[str, ...]:
    return tuple(spec.name for spec in all_scenarios() if spec.fast)


def build_problem(name: str, relaxation: Optional[str] = None,
                  params: Optional[Mapping[str, float]] = None) -> ScenarioProblem:
    """Build the named scenario's problem (the engine worker entry point).

    ``relaxation`` / ``params`` optionally override the
    registered defaults (see :meth:`ScenarioSpec.build`).
    """
    return get_scenario(name).build(relaxation=relaxation, params=params)
