"""Tests for the parameter-sweep subsystem (repro.sweep)."""

import json

import numpy as np
import pytest

from repro.engine.cache import cache_rate_summary
from repro.engine.engine import _execute_job
from repro.engine.jobs import STEP_LYAPUNOV, STEP_SWEEP
from repro.scenarios import build_problem, get_scenario
from repro.sweep import (
    GridSweep,
    SweepError,
    SweepOptions,
    SweepProgress,
    SweepRunner,
    get_sweep_family,
    sweep_family_names,
)


SMALL_GRID = {"mu": (0.8, 1.2, 2), "stiffness": (0.9, 1.1, 2)}


def _small_family():
    return get_sweep_family("vanderpol_grid").reconfigure(grid=SMALL_GRID)


def _frontier_blob(report):
    return json.dumps(report.frontier, sort_keys=True)


# ----------------------------------------------------------------------
# Registry parameter overrides (the path families expand through)
# ----------------------------------------------------------------------
class TestScenarioParameters:
    def test_declared_axes_have_nominals(self):
        spec = get_scenario("vanderpol")
        assert spec.sweep_axes == {"mu": 1.0, "stiffness": 1.0}

    def test_unknown_parameter_rejected(self):
        spec = get_scenario("vanderpol")
        with pytest.raises(ValueError, match="bogus"):
            spec.with_parameters({"bogus": 2.0})

    def test_override_changes_dynamics(self):
        nominal = build_problem("vanderpol")
        stiff = build_problem("vanderpol", params={"stiffness": 2.0})
        nom_flow = nominal.system.modes[0].flow_map
        new_flow = stiff.system.modes[0].flow_map
        assert [str(p) for p in nom_flow] != [str(p) for p in new_flow]

    def test_no_override_is_identity(self):
        # params=None must keep the historical build (and its cache keys).
        spec = get_scenario("pll3")
        assert spec.build().uncertainty == get_scenario("pll3").build().uncertainty

    def test_pll3_axes_are_table1_centres(self):
        axes = get_scenario("pll3").sweep_axes
        assert axes["i_p"] == pytest.approx(5e-4)
        assert set(axes) >= {"i_p", "k_vco", "r", "c1", "c2"}


# ----------------------------------------------------------------------
# Family expansion
# ----------------------------------------------------------------------
class TestFamilies:
    def test_catalog_registered(self):
        names = sweep_family_names()
        assert {"vanderpol_grid", "pll3_ip_ladder", "pll3_mc"} <= set(names)

    def test_grid_row_major_and_stable(self):
        family = _small_family()
        points = list(family.points())
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert points[0].params_dict == {"mu": 0.8, "stiffness": 0.9}
        assert points[1].params_dict == {"mu": 0.8, "stiffness": 1.1}
        assert points[3].params_dict == {"mu": 1.2, "stiffness": 1.1}

    def test_monte_carlo_same_seed_identical_points(self):
        family = get_sweep_family("pll3_mc").reconfigure(samples=8, seed=7)
        again = get_sweep_family("pll3_mc").reconfigure(samples=8, seed=7)
        points = [p.params for p in family.points()]
        repeat = [p.params for p in again.points()]
        assert points == repeat  # bit-identical floats, not approx
        other = get_sweep_family("pll3_mc").reconfigure(samples=8, seed=8)
        assert points != [p.params for p in other.points()]

    def test_monte_carlo_draws_inside_ranges(self):
        family = get_sweep_family("pll3_mc").reconfigure(samples=32)
        nominal = get_scenario("pll3").sweep_axes
        for point in family.points():
            params = point.params_dict
            assert 0.8 * nominal["i_p"] <= params["i_p"] <= 1.2 * nominal["i_p"]

    def test_degradation_ladder_fractions_of_nominal(self):
        family = get_sweep_family("pll3_ip_ladder").reconfigure(samples=5)
        nominal = get_scenario("pll3").sweep_axes["i_p"]
        values = [p.params_dict["i_p"] for p in family.points()]
        np.testing.assert_allclose(
            values, np.linspace(0.2, 1.0, 5) * nominal)

    def test_reconfigure_validation(self):
        grid = get_sweep_family("vanderpol_grid")
        with pytest.raises(ValueError, match="--samples"):
            grid.reconfigure(samples=5)
        with pytest.raises(ValueError, match="unknown axes"):
            grid.reconfigure(grid={"bogus": (0, 1, 2)})
        ladder = get_sweep_family("pll3_ip_ladder")
        with pytest.raises(ValueError, match="--seed"):
            ladder.reconfigure(seed=3)

    def test_fingerprint_tracks_configuration(self):
        family = get_sweep_family("vanderpol_grid")
        assert family.fingerprint() == family.fingerprint()
        assert family.fingerprint() != _small_family().fingerprint()

    def test_register_rejects_undeclared_axes(self):
        from repro.sweep import register_sweep_family

        with pytest.raises(ValueError, match="declares no axes"):
            register_sweep_family(GridSweep(
                name="bad_family", scenario="vanderpol",
                grid_axes=(("nonsense", 0.0, 1.0, 2),)))


# ----------------------------------------------------------------------
# Shard execution through the engine job layer
# ----------------------------------------------------------------------
class TestSweepShard:
    def _anchor(self, cache_dir):
        outcome = _execute_job(
            {"scenario": "vanderpol", "step": STEP_LYAPUNOV, "mode": None,
             "seed": 0, "relaxation": None, "params": None,
             "use_cache": True, "cache_dir": cache_dir})
        assert outcome["status"] == "ok"
        return outcome["data"]["certificates"]

    def test_sweep_shard_job(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        certificates = self._anchor(cache_dir)
        outcome = _execute_job(
            {"scenario": "vanderpol", "step": STEP_SWEEP, "mode": None,
             "certificates": certificates,
             "base": {"mu": 0.8, "stiffness": 0.9},
             "steps": {"mu": 0.4, "stiffness": 0.2},
             "anchor_params": {},
             "points": [{"index": 0, "params": {"mu": 0.8, "stiffness": 0.9}},
                        {"index": 1, "params": {"mu": 1.2, "stiffness": 1.1}}],
             "use_cache": True, "cache_dir": cache_dir})
        assert outcome["status"] == "ok"
        points = outcome["data"]["points"]
        assert [p["index"] for p in points] == [0, 1]
        assert all(p["certified"] for p in points)
        assert all(set(p) == {"index", "params", "certified", "sampling",
                              "sampling_vacuous", "probe"} for p in points)
        assert [p["sampling_vacuous"] for p in points] == [0, 0]
        stats = outcome["data"]["structures"]["sos"]
        assert stats["mode"] == "parametric"
        assert stats["binds"] == 2
        # Two axes: the base, one step along each, and the joint probe.
        assert stats["sampling"] == "affine"
        assert stats["model_builds"] == 4

    def test_unknown_step_still_errors(self):
        outcome = _execute_job({"scenario": "vanderpol", "step": "nonsense"})
        assert outcome["status"] == "error"


# ----------------------------------------------------------------------
# The planner end to end
# ----------------------------------------------------------------------
class TestSweepRunner:
    def test_end_to_end_and_determinism_across_jobs(self, tmp_path):
        family = _small_family()
        r1 = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path / "c1"))).run(family)
        assert r1.frontier["summary"]["points"] == 4
        assert r1.certified == 4
        assert r1.frontier["relaxation"] == "sos"
        for point in r1.points:
            assert "rung" not in point and "attempts" not in point

        r4 = SweepRunner(SweepOptions(
            jobs=4, cache_dir=str(tmp_path / "c4"))).run(family)
        assert _frontier_blob(r1) == _frontier_blob(r4)

    def test_warm_resweep_zero_solves(self, tmp_path):
        family = _small_family()
        options = SweepOptions(jobs=1, cache_dir=str(tmp_path))
        cold = SweepRunner(options).run(family)
        assert cold.run["counters"].get("solved", 0) > 0

        warm = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path))).run(family)
        assert warm.run["counters"].get("solved", 0) == 0
        assert warm.run["cache"]["hit_rate"] == 1.0
        assert warm.run["cache"]["lookups"] > 0
        assert _frontier_blob(cold) == _frontier_blob(warm)

    def test_resume_skips_completed_points(self, tmp_path):
        family = _small_family()
        options = SweepOptions(jobs=1, cache_dir=str(tmp_path))
        full = SweepRunner(options).run(family)

        progress = SweepProgress(tmp_path / "sweeps", family.name,
                                 family.fingerprint())
        progress.save({p["index"]: p for p in full.points[:3]})
        resumed = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path), use_cache=False,
            resume=True)).run(family)
        assert resumed.run["resumed_points"] == 3
        assert resumed.run["structures"]["sos"]["binds"] == 1
        assert _frontier_blob(resumed) == _frontier_blob(full)

    def test_fingerprint_mismatch_discards_progress(self, tmp_path):
        family = _small_family()
        progress = SweepProgress(tmp_path / "sweeps", family.name,
                                 "0123456789abcdef")
        progress.save({0: {"index": 0, "params": {}, "certified": True,
                           "sampling": True}})
        runner = SweepRunner(SweepOptions(jobs=1, cache_dir=str(tmp_path),
                                          resume=True))
        report = runner.run(family)
        assert report.run["resumed_points"] == 0
        assert report.frontier["summary"]["points"] == 4

    def test_frontier_shape(self, tmp_path):
        report = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path))).run(_small_family())
        frontier = report.frontier
        assert set(frontier["axes"]) == {"mu", "stiffness"}
        mu = frontier["axes"]["mu"]
        assert [row["value"] for row in mu["bins"]] == [0.8, 1.2]
        assert all(row["total"] == 2 for row in mu["bins"])
        assert mu["certified_range"] == [0.8, 1.2]
        assert frontier["schema"] == 2
        assert frontier["relaxation"] == "sos"
        assert "ladder" not in frontier
        summary = frontier["summary"]
        assert set(summary) == {"points", "certified", "uncertified"}
        assert summary["certified"] + summary["uncertified"] == summary["points"]
        text = report.render_text()
        assert "Sweep frontier: vanderpol_grid" in text
        assert "certified: 4/4 (relaxation sos)" in text
        assert "axis mu" in text

    def test_grid_reshape_through_options(self, tmp_path):
        report = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path), use_cache=False,
            grid={"mu": (1.0, 1.0, 1), "stiffness": (1.0, 1.0, 1)},
        )).run("vanderpol_grid")
        assert report.frontier["summary"]["points"] == 1
        assert tuple(report.frontier["family"]["grid_axes"][0]) == \
            ("mu", 1.0, 1.0, 1)

    def test_named_family_with_disk_cache(self, tmp_path):
        report = SweepRunner(SweepOptions(
            cache_dir=str(tmp_path), grid=SMALL_GRID)).run("vanderpol_grid")
        assert report.certified == 4

    def test_bad_reconfigure_is_sweep_error(self):
        runner = SweepRunner(SweepOptions(samples=5))
        with pytest.raises(SweepError, match="--samples"):
            runner.resolve_family("vanderpol_grid")


# ----------------------------------------------------------------------
# Failure paths of the engine's job loop, as the sweep sees them
# ----------------------------------------------------------------------
def _spy_shards(monkeypatch, fail_with=None):
    """Record each shard job's point indices; the second one raises
    ``fail_with`` when given."""
    import repro.sweep.probe as probe

    real = probe.run_sweep_shard
    calls = []

    def shard(payload, context):
        calls.append([point["index"] for point in payload["points"]])
        if fail_with is not None and len(calls) == 2:
            raise fail_with
        return real(payload, context)

    monkeypatch.setattr(probe, "run_sweep_shard", shard)
    return calls


class TestSweepFailures:
    @pytest.mark.parametrize("fail_with, detail", [
        (RuntimeError("shard exploded"), "RuntimeError: shard exploded"),
        (KeyboardInterrupt(), r"interrupted \(Ctrl-C\)"),
    ], ids=["error", "interrupt"])
    def test_failed_shard_keeps_progress_and_resumes(self, tmp_path,
                                                     monkeypatch, fail_with,
                                                     detail):
        family = _small_family()
        calls = _spy_shards(monkeypatch, fail_with)
        with pytest.raises(SweepError,
                           match=rf"(?s)1 sweep shard\(s\) failed .*{detail}"):
            SweepRunner(SweepOptions(jobs=1, shard_size=2,
                                     cache_dir=str(tmp_path))).run(family)
        assert calls == [[0, 1], [2, 3]]
        progress = SweepProgress(tmp_path / "sweeps", family.name,
                                 family.fingerprint())
        assert sorted(progress.load()) == [0, 1]

        calls = _spy_shards(monkeypatch)
        resumed = SweepRunner(SweepOptions(
            jobs=1, shard_size=2, cache_dir=str(tmp_path),
            resume=True)).run(family)
        assert calls == [[2, 3]]
        assert resumed.run["resumed_points"] == 2
        assert resumed.frontier["summary"]["points"] == 4

    def test_failed_anchor_runs_no_shard(self, tmp_path, monkeypatch):
        import repro.engine.engine as engine

        monkeypatch.setattr(
            engine, "_step_lyapunov",
            lambda problem, context=None: ("failed", "no certificate", {}))
        calls = _spy_shards(monkeypatch)
        with pytest.raises(SweepError,
                           match="anchor synthesis .* failed: no certificate"):
            SweepRunner(SweepOptions(jobs=1, shard_size=2,
                                     cache_dir=str(tmp_path))).run(_small_family())
        assert calls == []

    def test_failed_anchor_keeps_previous_progress(self, tmp_path,
                                                   monkeypatch):
        import repro.engine.engine as engine

        family = _small_family()
        _spy_shards(monkeypatch, RuntimeError("shard exploded"))
        with pytest.raises(SweepError):
            SweepRunner(SweepOptions(jobs=1, shard_size=2,
                                     cache_dir=str(tmp_path))).run(family)
        monkeypatch.setattr(
            engine, "_step_lyapunov",
            lambda problem, context=None: ("failed", "no certificate", {}))
        with pytest.raises(SweepError, match="anchor synthesis"):
            SweepRunner(SweepOptions(jobs=1, shard_size=2,
                                     cache_dir=str(tmp_path))).run(family)
        progress = SweepProgress(tmp_path / "sweeps", family.name,
                                 family.fingerprint())
        assert sorted(progress.load()) == [0, 1]


# ----------------------------------------------------------------------
# Probe batches: one solve_many per solver configuration
# ----------------------------------------------------------------------
#: A 2x2 grid on the edge of the certified region: one point fails sampling,
#: the other three are probed and certify.
EDGE_GRID = {"mu": (1.0, 4.0, 2), "stiffness": (3.0, 4.0, 2)}


def _outcomes(report):
    return [(p["index"], p["certified"], p["sampling"]) for p in report.points]


class TestSweepBatching:
    def test_rung_batches_match_per_point_solves(self, tmp_path, monkeypatch):
        from repro.sdp import SolveContext

        family = get_sweep_family("vanderpol_grid").reconfigure(grid=EDGE_GRID)
        batches = []
        solve_many = SolveContext.solve_many

        def counted(self, problems, warm_starts=None, *, solver="admm", **settings):
            batches.append((solver, len(problems)))
            return solve_many(self, problems, warm_starts, solver=solver, **settings)

        monkeypatch.setattr(SolveContext, "solve_many", counted)
        batched = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path / "batched"))).run(family)

        def per_point(self, problems, warm_starts=None, *, solver="admm", **settings):
            return [self.solve(problem, solver=solver, **settings)
                    for problem in problems]

        monkeypatch.setattr(SolveContext, "solve_many", per_point)
        reference = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path / "reference"))).run(family)

        assert _outcomes(batched) == _outcomes(reference)
        # Each probe's solve is bit-identical to its per-point solve.
        assert [p.get("probe") for p in batched.points] == \
            [p.get("probe") for p in reference.points]
        assert [p["certified"] for p in batched.points] == [True, False, True, True]
        assert not batched.points[1]["sampling"]
        # One interior-point batch holding every point that passed sampling.
        assert batches == [("ipm", 3)]

        monkeypatch.setattr(SolveContext, "solve_many", counted)
        warm = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path / "batched"))).run(family)
        assert warm.run["counters"].get("solved", 0) == 0
        assert _outcomes(warm) == _outcomes(batched)

    def test_points_record_their_deciding_probe(self, tmp_path):
        family = get_sweep_family("vanderpol_grid").reconfigure(grid=EDGE_GRID)
        reports = [SweepRunner(SweepOptions(
            jobs=jobs, cache_dir=str(tmp_path / f"c{jobs}"))).run(family)
            for jobs in (1, 2)]
        for report in reports:
            for point in report.points:
                if not point["sampling"]:
                    assert "probe" not in point
                    continue
                probe = point["probe"]
                assert set(probe) == {"status", "iterations", "primal_residual"}
                assert probe["iterations"] > 0
                assert np.isfinite(probe["primal_residual"])
        assert [p.get("probe") for p in reports[0].points] == \
            [p.get("probe") for p in reports[1].points]
        assert sum("probe" in p for p in reports[0].points) == 3

    def test_rebuild_mode_interprets_each_point_with_its_program(
            self, tmp_path, monkeypatch):
        from repro.sos import MultiParametricSOSProgram, ParametricProgramError

        parametric = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path / "parametric"))).run(_small_family())

        def not_affine(self):
            raise ParametricProgramError("forced per-point rebuilds")

        monkeypatch.setattr(MultiParametricSOSProgram, "compile", not_affine)
        rebuilt = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path / "rebuild"))).run(_small_family())
        stats = rebuilt.run["structures"]
        assert {relaxation: entry["mode"]
                for relaxation, entry in stats.items()} == {"sos": "rebuild"}
        assert stats["sos"]["rebuild_compiles"] == 4
        # Every point certifies, as it does on the parametric path.
        assert [p["certified"] for p in rebuilt.points] == [True] * 4
        assert _outcomes(rebuilt) == _outcomes(parametric)

    def test_rebuild_mode_counts_the_failed_family_compiles(
            self, tmp_path, monkeypatch):
        from repro.sos import MultiParametricSOSProgram, ParametricProgramError

        compile_ = MultiParametricSOSProgram.compile

        def compiled_then_not_affine(self):
            compile_(self)
            raise ParametricProgramError("forced after the structural compiles")

        monkeypatch.setattr(MultiParametricSOSProgram, "compile",
                            compiled_then_not_affine)
        report = SweepRunner(SweepOptions(
            jobs=1, cache_dir=str(tmp_path))).run(_small_family())
        stats = report.run["structures"]["sos"]
        assert stats["mode"] == "rebuild"
        # Base, one step per axis (mu, stiffness) and the joint probe.
        assert stats["structure_compiles"] == 4
        assert stats["parametric_compiles"] == 0
        assert stats["rebuild_compiles"] == 4
        assert "4 structural compile(s)" in report.render_text()


# ----------------------------------------------------------------------
# Decrease samples drawn once per shard
# ----------------------------------------------------------------------
def _pll3_test_certificates(problem):
    """Arbitrary quartic certificates, one per pll3 mode: the reuse under
    test is sampling arithmetic, which any fixed polynomials exercise."""
    from repro.polynomial import Polynomial

    state_vars = problem.system.state_variables
    rng = np.random.default_rng(3)
    certificates = {}
    for mode in problem.system.modes:
        M = rng.standard_normal((len(state_vars), len(state_vars)))
        quadratic = Polynomial.from_quadratic_form(
            state_vars, M @ M.T + np.eye(len(state_vars)))
        certificates[mode.name] = quadratic + 0.1 * quadratic * quadratic
    return certificates


def _reference_reports(synthesizer, certificates, prefix="probe_decrease"):
    """Per-point decrease checks through the symbolic Lie derivative."""
    from repro.sos import validate_decrease_along_field

    options = synthesizer.options
    state_vars = synthesizer.system.state_variables
    reports = []
    for mode in synthesizer.system.modes:
        domain = synthesizer._decrease_domain(mode)
        for k, field in enumerate(synthesizer._mode_fields(mode)):
            reports.append(validate_decrease_along_field(
                certificates[mode.name].with_variables(state_vars), list(field),
                domain, options.domain_boxes,
                num_samples=options.validate_samples,
                tolerance=options.validation_tolerance,
                name=f"{prefix}[{mode.name}#{k}]"))
    return reports


def _assert_reports_match(got, expected):
    assert len(got) == len(expected)
    for report, reference in zip(got, expected):
        assert report.name == reference.name
        assert report.num_samples == reference.num_samples
        assert report.num_in_domain == reference.num_in_domain
        assert report.passed == reference.passed
        assert report.tolerance == reference.tolerance
        assert report.min_value == pytest.approx(reference.min_value, rel=1e-12)
        if reference.argmin is None:
            assert report.argmin is None
        else:
            np.testing.assert_array_equal(report.argmin, reference.argmin)


class TestDecreaseSamplingPlan:
    def test_ladder_points_match_per_point_reference(self):
        from repro.core.lyapunov import MultipleLyapunovSynthesizer
        from repro.sos import DecreaseSamplingPlan

        family = get_sweep_family("pll3_ip_ladder").reconfigure(samples=12)
        certificates = _pll3_test_certificates(build_problem("pll3"))
        plan = DecreaseSamplingPlan()
        for point in family.points():
            problem = build_problem("pll3", params=dict(point.params))
            problem.fill_option_defaults()
            synthesizer = MultipleLyapunovSynthesizer(
                problem.system, options=problem.options.lyapunov)
            reports = [check.report() for check in
                       synthesizer.validate_certificate_decrease(
                           certificates, plan=plan)]
            assert reports
            _assert_reports_match(
                reports, _reference_reports(synthesizer, certificates))
        # One draw per mode: i_p moves the fields, not the decrease domains.
        assert len(plan) == len(certificates)

    def test_distinct_domains_draw_their_own_samples(self):
        from dataclasses import replace

        from repro.core.lyapunov import MultipleLyapunovSynthesizer
        from repro.sos import DecreaseSamplingPlan

        problem = build_problem("pll3").fill_option_defaults()
        certificates = _pll3_test_certificates(problem)
        plan = DecreaseSamplingPlan()
        for radius in (0.8, 0.5, 0.8):
            options = replace(problem.options.lyapunov, lock_tube_radius=radius)
            synthesizer = MultipleLyapunovSynthesizer(problem.system, options=options)
            _assert_reports_match(
                [check.report() for check in
                 synthesizer.validate_certificate_decrease(certificates, plan=plan)],
                _reference_reports(synthesizer, certificates))
        assert len(plan) == 2 * len(certificates)

    def test_synthesis_validation_matches_reference(self):
        from repro.core.lyapunov import ModeCertificate, MultipleLyapunovSynthesizer

        problem = build_problem("pll3").fill_option_defaults()
        certificates = _pll3_test_certificates(problem)
        synthesizer = MultipleLyapunovSynthesizer(
            problem.system, options=problem.options.lyapunov)
        state_vars = synthesizer.system.state_variables
        mode_certificates = {
            mode.name: ModeCertificate(
                mode_name=mode.name,
                certificate=certificates[mode.name].with_variables(state_vars),
                domain=synthesizer._mode_domain(mode))
            for mode in synthesizer.system.modes}
        reports = [report for report in synthesizer._validate(mode_certificates)
                   if report.name.startswith("decrease[")]
        _assert_reports_match(
            reports, _reference_reports(synthesizer, certificates, prefix="decrease"))


# ----------------------------------------------------------------------
# Affine sampling gate: a shard's points decided from its structural models
# ----------------------------------------------------------------------
#: Points 170..193 of the 200-point Ip ladder: the certified region starts at
#: point 182, so the shard straddles the sampling frontier.
LADDER_SHARD = range(170, 194)


@pytest.fixture(scope="module")
def ladder_shard(pll3_run, tmp_path_factory):
    """A shard payload of the 200-point pll3 Ip ladder with pll3's anchor
    certificates (replayed from a copy of the ``pll3_run`` cache)."""
    import shutil

    cache_dir = str(tmp_path_factory.mktemp("ladder_cache"))
    shutil.copytree(pll3_run.cache_dir, cache_dir, dirs_exist_ok=True)
    anchor = _execute_job(
        {"scenario": "pll3", "step": STEP_LYAPUNOV, "mode": None, "seed": 0,
         "relaxation": None, "params": None,
         "use_cache": True, "cache_dir": cache_dir})
    assert anchor["status"] == "ok" and anchor["counters"].get("solved", 0) == 0
    family = get_sweep_family("pll3_ip_ladder").reconfigure(samples=200)
    base, steps = family.parametrization()
    points = list(family.points())
    return {"scenario": "pll3", "step": STEP_SWEEP, "mode": None,
            "certificates": anchor["data"]["certificates"],
            "base": base, "steps": steps, "anchor_params": {},
            "points": [{"index": points[i].index,
                        "params": points[i].params_dict}
                       for i in LADDER_SHARD],
            "use_cache": False, "cache_dir": cache_dir}


def _run_shard(payload):
    from repro.sdp import SolveContext
    from repro.sweep.probe import run_sweep_shard

    status, _, data = run_sweep_shard(payload, SolveContext())
    assert status == "ok"
    return data


def _shard_outcomes(data):
    return [(p["index"], p["certified"], p["sampling"], p["sampling_vacuous"])
            for p in data["points"]]


@pytest.fixture(scope="module")
def affine_shard(ladder_shard):
    return _run_shard(ladder_shard)


class TestAffineSampling:
    def test_reports_match_per_point_path(self, ladder_shard):
        from repro.core.lyapunov import MultipleLyapunovSynthesizer
        from repro.engine import certificates_from_data
        from repro.sdp import SolveContext
        from repro.sos import DecreaseSamplingPlan
        from repro.sweep.probe import _ProbeStructure

        certificates = certificates_from_data(ladder_shard["certificates"])
        structure = _ProbeStructure("pll3", certificates, {},
                                    ladder_shard["base"], ladder_shard["steps"],
                                    SolveContext())
        assert structure.sampling == "affine"
        plan = DecreaseSamplingPlan()
        passed = []
        for entry in ladder_shard["points"]:
            problem = build_problem("pll3", params=entry["params"])
            problem.fill_option_defaults()
            synthesizer = MultipleLyapunovSynthesizer(
                problem.system, options=problem.options.lyapunov)
            expected = [check.report() for check in
                        synthesizer.validate_certificate_decrease(
                            certificates, plan=plan)]
            _assert_reports_match(
                structure.sampling_reports(entry["params"]), expected)
            passed.append(all(report.passed for report in expected))
        # The shard straddles the frontier: both verdicts occur.
        assert passed == [False] * 12 + [True] * 12

    def test_shard_builds_at_most_d_plus_2_models(
            self, ladder_shard, monkeypatch):
        import repro.sweep.probe as probe

        builds = []
        build_problem_ = probe.build_problem

        def counted(*args, **kwargs):
            builds.append(kwargs.get("params"))
            return build_problem_(*args, **kwargs)

        monkeypatch.setattr(probe, "build_problem", counted)
        data = _run_shard(ladder_shard)
        stats = data["structures"]["sos"]
        assert stats["sampling"] == "affine"
        assert stats["mode"] == "parametric"
        # One axis: the base, one step along it, and the joint probe.
        assert len(builds) == stats["model_builds"] == 3
        assert [p["certified"] for p in data["points"]] == \
            [False] * 12 + [True] * 12
        # mode1 is pinned to e = 0: its decrease check lands no sample.
        assert {p["sampling_vacuous"] for p in data["points"]} == {1}

    def test_rebuild_mode_samples_per_point(
            self, ladder_shard, affine_shard, monkeypatch):
        from repro.sos import MultiParametricSOSProgram, ParametricProgramError

        def not_affine(self):
            raise ParametricProgramError("forced per-point rebuilds")

        monkeypatch.setattr(MultiParametricSOSProgram, "compile", not_affine)
        data = _run_shard(ladder_shard)
        stats = data["structures"]["sos"]
        assert (stats["mode"], stats["sampling"]) == ("rebuild", "per_point")
        # Every point builds its model; every probed point builds it again.
        assert stats["model_builds"] == 24 + 12
        assert _shard_outcomes(data) == _shard_outcomes(affine_shard)

    def test_probe_mismatch_samples_per_point(
            self, ladder_shard, affine_shard, monkeypatch):
        from dataclasses import replace

        from repro.core.lyapunov import MultipleLyapunovSynthesizer

        validate = MultipleLyapunovSynthesizer.validate_certificate_decrease
        calls = []

        def skewed(self, certificates, plan):
            checks = validate(self, certificates, plan)
            calls.append(len(checks))
            if len(calls) == 3:   # the joint probe, after base and step
                checks = [replace(check, values=check.values + 1e-6 * (
                    1.0 + np.abs(check.values).max(initial=0.0)))
                    for check in checks]
            return checks

        monkeypatch.setattr(MultipleLyapunovSynthesizer,
                            "validate_certificate_decrease", skewed)
        data = _run_shard(ladder_shard)
        stats = data["structures"]["sos"]
        assert (stats["mode"], stats["sampling"]) == ("parametric", "per_point")
        assert stats["model_builds"] == 3 + 24
        assert len(calls) == 3 + 24
        assert _shard_outcomes(data) == _shard_outcomes(affine_shard)


# ----------------------------------------------------------------------
# Cache telemetry surfaces (satellite: hit rates in reports)
# ----------------------------------------------------------------------
class TestCacheTelemetry:
    def test_cache_rate_summary(self):
        summary = cache_rate_summary({"hits": 3, "misses": 1, "writes": 1})
        assert summary["lookups"] == 4
        assert summary["hit_rate"] == pytest.approx(0.75)
        empty = cache_rate_summary({})
        assert empty["lookups"] == 0 and empty["hit_rate"] == 0.0

    def test_engine_report_includes_cache_section(self, tmp_path):
        from repro.engine import EngineOptions, VerificationEngine

        options = EngineOptions(jobs=1, cache_dir=str(tmp_path))
        report = VerificationEngine(options).run(["vanderpol"])
        engine = report.to_json_dict()["engine"]
        assert "cache" in engine
        assert engine["cache"]["lookups"] == \
            engine["cache"]["hits"] + engine["cache"]["misses"]
        warm = VerificationEngine(EngineOptions(
            jobs=1, cache_dir=str(tmp_path))).run(["vanderpol"])
        summary = warm.to_json_dict()["engine"]["cache"]
        assert summary["hit_rate"] == 1.0
        assert "Certificate cache:" in warm.render_text()

