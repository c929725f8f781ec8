"""Registered charge-pump PLL scenarios.

Wraps the paper's third- and fourth-order workloads and adds degraded /
parameter-corner variants built through :mod:`repro.pll.parameters`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import (
    AdvectionOptions,
    EscapeOptions,
    InevitabilityOptions,
    LevelSetOptions,
    LyapunovSynthesisOptions,
)
from ..pll import (
    PLLParameters,
    PLLVerificationModel,
    RegionOfInterest,
    build_fourth_order_model,
    build_third_order_model,
)
from ..polynomial import Polynomial
from ..utils import Interval
from .problem import ScenarioProblem
from .registry import ScenarioSpec, register_scenario


def _pll_options(spec: ScenarioSpec, model: PLLVerificationModel, *,
                 lock_tube_radius: float = 0.8,
                 validate_samples: int = 400,
                 advection_iterations: int = 6,
                 initial_upper_bound: Optional[float] = 0.5,
                 attempt_escape: bool = False) -> InevitabilityOptions:
    """Stage options derived from a scenario spec's declarative knobs.

    Two configuration points matter for the PLL family:

    * the idle mode is pinned to its sliding surface ``e = 0`` (in the relay
      abstraction mode1 only flows there), otherwise the decrease condition
      is quantified over the whole phase strip and is infeasible;
    * level curves are maximised over the region box (``levelset_domain =
      "box"``) because the pumping modes' flow sets touch the equilibrium.

    ``initial_upper_bound`` is always pinned (no sampling-based bracket), so
    the level ladder — and with it every SDP — is identical across runs and
    processes, which the content-addressed certificate cache relies on.
    """
    solver = dict(spec.solver_settings) or dict(max_iterations=30000,
                                                eps_rel=1e-4, eps_abs=1e-5)
    phase = Polynomial.from_variable(model.phase_variable, model.state_variables)
    return InevitabilityOptions(
        lyapunov=LyapunovSynthesisOptions(
            certificate_degree=spec.certificate_degree,
            multiplier_degree=spec.multiplier_degree,
            positivity_margin=0.05,
            lock_tube_radius=lock_tube_radius,
            validate_samples=validate_samples,
            validation_tolerance=5e-2,
            mode_equalities={"mode1": (phase,)},
            solver_settings=dict(solver),
        ),
        levelset=LevelSetOptions(
            multiplier_degree=spec.multiplier_degree,
            bisection_tolerance=0.05,
            max_bisection_iterations=6,
            initial_upper_bound=initial_upper_bound,
            solver_settings=dict(max_iterations=8000, eps_rel=1e-4, eps_abs=1e-5),
        ),
        advection=AdvectionOptions(
            time_step=0.1,
            max_iterations=advection_iterations,
            inclusion_check_every=2,
            solver_settings=dict(max_iterations=4000),
        ),
        escape=EscapeOptions(certificate_degree=2, validate_samples=300,
                             solver_settings=dict(max_iterations=3000)),
        attempt_escape_on_inconclusive=attempt_escape,
        levelset_domain="box",
    )


def _pinned_parameters(base: PLLParameters, pinned: Dict[str, float],
                       name: str) -> PLLParameters:
    """Pin every interval of a Table 1 column to a concrete point.

    Constants named in ``pinned`` take the given absolute value; every other
    constant sits at its interval centre.  Sweep points, process corners and
    degraded components are all such points of the design space.
    """
    values = {}
    for pname, interval in base.named_intervals().items():
        if pname in pinned:
            values[pname] = Interval.point(float(pinned[pname]))
        else:
            values[pname] = Interval.point(interval.center)
    return PLLParameters(
        order=base.order,
        c1=values["c1"], c2=values["c2"], r=values["r"],
        f_ref=values["f_ref"], k_vco=values["k_vco"], i_p=values["i_p"],
        divider=values["divider"],
        c3=values.get("c3"), r2=values.get("r2"),
        f_free=base.f_free, name=name,
    )


#: Declared sweep axes of the third-order PLL: every Table 1 constant, with
#: the interval centre as nominal value.  The conic data is affine in ``i_p``
#: and ``k_vco`` (they enter the normalised rates linearly) — those axes get
#: the one-compile parametric fast path; sweeps over ``c2``/``r``/``divider``
#: transparently fall back to per-point rebuilds.
_PLL3_SWEEP_AXES = {
    pname: interval.center
    for pname, interval in PLLParameters.third_order_paper().named_intervals().items()
}


@register_scenario(
    name="pll3",
    description="3rd-order CP PLL (paper Table 1), nominal constants, full pipeline",
    certificate_degree=4,
    expected="property_one",
    tags=("pll", "paper"),
    fast=True,
    sweep_axes=_PLL3_SWEEP_AXES,
)
def _build_pll3(spec: ScenarioSpec) -> ScenarioProblem:
    # Parameter overrides pin every constant to a point; the no-override
    # build keeps the historical ``parameters=None`` path so its conic data
    # (and therefore its certificate-cache keys) are untouched.
    parameters = None
    if spec.parameters:
        parameters = _pinned_parameters(
            PLLParameters.third_order_paper(), dict(spec.parameters),
            name="third_order_swept")
    model = build_third_order_model(
        parameters=parameters,
        region=RegionOfInterest(voltage_bound=3.0, phase_bound=1.5),
        uncertainty="none",
    )
    return ScenarioProblem.from_pll_model(
        model, _pll_options(spec, model), falsification_count=6,
        falsification_duration=40.0)


@register_scenario(
    name="pll3_uncertain",
    description="3rd-order CP PLL with interval charge-pump current (vertex handling)",
    certificate_degree=4,
    expected="property_one",
    tags=("pll", "uncertainty"),
)
def _build_pll3_uncertain(spec: ScenarioSpec) -> ScenarioProblem:
    model = build_third_order_model(
        region=RegionOfInterest(voltage_bound=3.0, phase_bound=1.5),
        uncertainty="pump",
    )
    options = _pll_options(spec, model)
    options.verify_property_two = False
    return ScenarioProblem.from_pll_model(model, options, falsification_count=4)


@register_scenario(
    name="pll3_slow_corner",
    description="3rd-order PLL at the slowest Table 1 process corner "
                "(min pump current, max C2, max divider)",
    certificate_degree=4,
    expected="property_one",
    tags=("pll", "corner-sweep"),
)
def _build_pll3_slow_corner(spec: ScenarioSpec) -> ScenarioProblem:
    base = PLLParameters.third_order_paper()
    parameters = _pinned_parameters(
        base,
        {"i_p": base.i_p.lower, "c2": base.c2.upper, "divider": base.divider.upper},
        name="third_order_slow_corner",
    )
    model = build_third_order_model(
        parameters=parameters,
        region=RegionOfInterest(voltage_bound=3.0, phase_bound=1.5),
        uncertainty="none",
    )
    options = _pll_options(spec, model)
    options.verify_property_two = False
    return ScenarioProblem.from_pll_model(model, options, falsification_count=4)


@register_scenario(
    name="pll3_weak_pump",
    description="Degraded charge pump: 3rd-order PLL with Ip aged to 40% of nominal",
    certificate_degree=4,
    expected="property_one",
    tags=("pll", "degraded"),
)
def _build_pll3_weak_pump(spec: ScenarioSpec) -> ScenarioProblem:
    base = PLLParameters.third_order_paper()
    degraded = _pinned_parameters(base, {"i_p": 0.4 * base.i_p.center},
                                  name="third_order_weak_pump")
    model = build_third_order_model(
        parameters=degraded,
        region=RegionOfInterest(voltage_bound=3.0, phase_bound=1.5),
        uncertainty="none",
    )
    # A 60% weaker pump slows reachability; promise the attractive invariant
    # and let advection report whatever its budget reaches.
    options = _pll_options(spec, model, advection_iterations=4)
    options.verify_property_two = False
    return ScenarioProblem.from_pll_model(model, options, falsification_count=4)


@register_scenario(
    name="pll4",
    description="4th-order CP PLL (paper Table 1): certificates validate, but "
                "pumping-mode level maximisation exceeds default ADMM budgets",
    certificate_degree=4,
    expected="inconclusive",
    tags=("pll", "paper", "hard"),
)
def _build_pll4(spec: ScenarioSpec) -> ScenarioProblem:
    model = build_fourth_order_model(
        region=RegionOfInterest(voltage_bound=2.0, phase_bound=1.0),
        uncertainty="none",
    )
    options = _pll_options(spec, model, lock_tube_radius=0.8,
                           validate_samples=300)
    options.verify_property_two = False
    return ScenarioProblem.from_pll_model(model, options, falsification_count=0)


@register_scenario(
    name="pll4_deg4",
    description="4th-order CP PLL with degree-4 certificates under the "
                "chordal relaxation, which splits the large degree-4 Gram "
                "blocks into clique-sized PSD cones",
    certificate_degree=4,
    expected="inconclusive",
    relaxation="chordal",
    tags=("pll", "paper", "chordal", "hard"),
)
def _build_pll4_deg4(spec: ScenarioSpec) -> ScenarioProblem:
    model = build_fourth_order_model(
        region=RegionOfInterest(voltage_bound=2.0, phase_bound=1.0),
        uncertainty="none",
    )
    # Same plant as ``pll4``, but the stage options inherit the spec's
    # chordal relaxation.
    options = _pll_options(spec, model, lock_tube_radius=0.8,
                           validate_samples=300)
    options.verify_property_two = False
    return ScenarioProblem.from_pll_model(model, options, falsification_count=0)
