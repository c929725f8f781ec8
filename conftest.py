"""Session fixtures shared by ``tests/`` and ``benchmarks/``.

``pll3_run`` and ``pll4_run`` verify the registered ``pll3`` / ``pll4``
scenario once per test session, cold, through the verification engine
(``jobs=1``, a fresh certificate cache).  The pll3 acceptance tests, the
Table 2 and figure benches and the sweep bench all read the same run, so a
session pays for each cold run at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import pytest

from repro.engine import (
    STEP_LEVELSET,
    EngineOptions,
    EngineReport,
    JobResult,
    ScenarioOutcome,
    VerificationEngine,
)
from repro.scenarios import ScenarioProblem, build_problem


@dataclass(frozen=True)
class ScenarioRun:
    """One cold engine run of a registered scenario."""

    problem: ScenarioProblem   # build_problem(name): the registered options
    report: EngineReport
    cache_dir: str             # the run's certificate cache

    @property
    def outcome(self) -> ScenarioOutcome:
        return self.report.outcome(self.problem.name)

    def levelset_jobs(self) -> Dict[str, JobResult]:
        """The run's level-curve jobs, keyed by mode."""
        return {job.mode: job for job in self.outcome.jobs
                if job.step == STEP_LEVELSET}

    def levels(self) -> Dict[str, object]:
        """Certified level per mode; ``None`` where no level was certified."""
        return {mode: job.data.get("level")
                for mode, job in self.levelset_jobs().items()}


def _cold_run(name: str, tmp_path_factory) -> ScenarioRun:
    cache_dir = str(tmp_path_factory.mktemp(f"{name}_cache"))
    report = VerificationEngine(
        EngineOptions(jobs=1, cache_dir=cache_dir)).run([name])
    return ScenarioRun(build_problem(name), report, cache_dir)


@pytest.fixture(scope="session")
def pll3_run(tmp_path_factory) -> ScenarioRun:
    return _cold_run("pll3", tmp_path_factory)


@pytest.fixture(scope="session")
def pll4_run(tmp_path_factory) -> ScenarioRun:
    return _cold_run("pll4", tmp_path_factory)
