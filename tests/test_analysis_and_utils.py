"""Tests for the analysis helpers (projection, falsification, timing) and utils."""

import logging

import numpy as np
import pytest

from repro.analysis import (
    project_sublevel_set,
    project_union,
    random_initial_states,
    simulate_relay_abstraction,
)
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.pll import build_third_order_model
from repro.utils import (
    Interval,
    box_center,
    disable_console_logging,
    enable_console_logging,
    get_logger,
    interval_vertices,
)


@pytest.fixture()
def xy():
    x, y = make_variables("x", "y")
    return VariableVector([x, y])


class TestProjection:
    def test_slice_projection_of_disc(self, xy):
        px = Polynomial.from_variable(xy[0], xy)
        py = Polynomial.from_variable(xy[1], xy)
        disc = px * px + py * py - 1.0
        grid = project_sublevel_set(disc, xy, ("x0", "x1") if False else ("x", "y"),
                                    [(-2, 2), (-2, 2)], resolution=41)
        assert 0.1 < grid.occupancy < 0.3        # pi/16 ~ 0.196
        x_min, x_max, y_min, y_max = grid.extent()
        assert x_min == pytest.approx(-1.0, abs=0.15)
        assert x_max == pytest.approx(1.0, abs=0.15)
        assert grid.boundary_points().shape[1] == 2
        assert len(grid.row_summary()) > 0

    def test_shadow_projection_larger_than_slice(self):
        x, y, z = make_variables("x", "y", "z")
        xv = VariableVector([x, y, z])
        px = Polynomial.from_variable(x, xv)
        py = Polynomial.from_variable(y, xv)
        pz = Polynomial.from_variable(z, xv)
        # offset sphere: centred at z = 1, so the z=0 slice is smaller than the shadow
        sphere = px * px + py * py + (pz - 1.0) ** 2 - 1.5
        bounds = [(-2, 2), (-2, 2), (-2, 2)]
        slice_grid = project_sublevel_set(sphere, xv, ("x", "y"), bounds, resolution=31)
        shadow_grid = project_sublevel_set(sphere, xv, ("x", "y"), bounds,
                                           resolution=31, kind="shadow",
                                           hidden_samples=25)
        assert shadow_grid.occupancy >= slice_grid.occupancy

    def test_union_projection(self, xy):
        px = Polynomial.from_variable(xy[0], xy)
        py = Polynomial.from_variable(xy[1], xy)
        left = (px + 1.0) ** 2 + py * py - 0.25
        right = (px - 1.0) ** 2 + py * py - 0.25
        union = project_union([left, right], xy, ("x", "y"), [(-2, 2), (-2, 2)],
                              resolution=41)
        single = project_sublevel_set(left, xy, ("x", "y"), [(-2, 2), (-2, 2)],
                                      resolution=41)
        assert union.occupancy > single.occupancy

    def test_unknown_axis_rejected(self, xy):
        px = Polynomial.from_variable(xy[0], xy)
        with pytest.raises(ValueError):
            project_sublevel_set(px, xy, ("x", "nope"), [(-1, 1), (-1, 1)])


class TestFalsification:
    def test_relay_abstraction_converges_from_moderate_state(self):
        model = build_third_order_model(uncertainty="none")
        trajectory = simulate_relay_abstraction(model, [1.0, -1.0, 0.5],
                                                duration=40.0, dt=2e-3)
        assert trajectory.shape[1] == 3
        final_voltages = trajectory[-1][:2]
        assert np.linalg.norm(final_voltages) < 0.5

    def test_random_initial_states_inside_outer_set(self):
        model = build_third_order_model(uncertainty="none")
        states = random_initial_states(model, 10, scale=0.7, seed=1)
        outer = model.outer_set_polynomial(margin=0.7)
        assert states.shape == (10, 3)
        assert np.all(outer.evaluate_many(states) <= 1e-9)


class TestTimerAndLogging:
    def test_logging_helpers(self):
        logger = get_logger("unit")
        assert logger.name == "repro.unit"
        enable_console_logging(logging.WARNING)
        root = get_logger()
        assert any(isinstance(h, logging.StreamHandler) for h in root.handlers)
        disable_console_logging()
        assert not any(isinstance(h, logging.StreamHandler) for h in root.handlers)


class TestIntervalUtilities:
    def test_vertices_and_center(self):
        intervals = [Interval(0.0, 1.0), Interval(2.0, 2.0), Interval(-1.0, 1.0)]
        vertices = list(interval_vertices(intervals))
        assert len(vertices) == 4          # degenerate middle interval contributes one value
        assert box_center(intervals) == (0.5, 2.0, 0.0)

    def test_reciprocal_and_division(self):
        interval = Interval(2.0, 4.0)
        inv = interval.reciprocal()
        assert inv.lower == pytest.approx(0.25)
        assert inv.upper == pytest.approx(0.5)
        with pytest.raises(ZeroDivisionError):
            Interval(-1.0, 1.0).reciprocal()

    def test_containment_and_clamp(self):
        interval = Interval(-1.0, 3.0)
        assert interval.contains(0.0)
        assert interval.contains_interval(Interval(0.0, 1.0))
        assert not interval.contains_interval(Interval(0.0, 5.0))
        assert interval.clamp(10.0) == 3.0
        assert Interval.coerce((1, 2)).width == pytest.approx(1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
