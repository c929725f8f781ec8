"""The parallel verification engine.

:class:`VerificationEngine` expands registered scenarios into DAGs of jobs
(Lyapunov search → per-mode level-set maximisation → per-mode
advection/inclusion (+ escape) → falsification cross-check), memoises every
conic solve in the persistent certificate cache, and aggregates the results
into the existing :mod:`repro.core.report` machinery.

:func:`_run_jobs` is the one job loop of the package.  It drives any set of
DAG drivers (:class:`_JobDriver` subclasses: the engine's per-scenario
:class:`_ScenarioDriver`, and the sweep planner's anchor-and-shards DAG),
inline for ``jobs=1`` or across a ``concurrent.futures`` process pool, and
settles dead workers, per-job timeouts and Ctrl-C as job outcomes.

Every job is *hermetic*: the worker rebuilds the scenario problem from the
registry by name and receives upstream artifacts as plain data, so results
are identical whether the DAG runs inline (``jobs=1``), across a pool
(``jobs=N``) or replayed from a warm cache.  :func:`run_in_process` replays
the same DAG over a given problem object in the calling thread, outside the
job loop; it is what
:meth:`~repro.core.inevitability.InevitabilityVerifier.verify` runs.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import (
    AttractiveInvariant,
    MultipleLyapunovSynthesizer,
    LevelSetMaximizer,
    PropertyOneResult,
    PropertyTwoResult,
    ModePropertyTwoResult,
    VerificationReport,
    VerificationStatus,
    STEP_ADVECTION,
    STEP_ATTRACTIVE_INVARIANT,
    STEP_ESCAPE,
    STEP_MAX_LEVEL_CURVES,
    STEP_SET_INCLUSION,
)
from ..core.inevitability import (
    advection_mode_names,
    levelset_domain_for,
    run_mode_property_two,
)
from ..core.levelset import MaximizedLevelSet
from ..core.report import STEP_FALSIFICATION_CHECK, join_relaxations
from ..exceptions import CertificateError
from ..polynomial import Polynomial
from ..sdp import SolveContext
from ..utils import get_logger
from .cache import CertificateCache, cache_rate_summary
from .jobs import (
    STEP_FALSIFICATION,
    STEP_LEVELSET,
    STEP_LYAPUNOV,
    STEP_SWEEP,
    JobResult,
    JobSpec,
    JobStatus,
)
from .jobs import STEP_ADVECTION as JOB_STEP_ADVECTION
from .serialize import (
    certificates_from_data,
    certificates_to_data,
    polynomial_from_data,
)

LOGGER = get_logger("engine")


@dataclass
class EngineOptions:
    """Configuration of one engine run."""

    jobs: int = 1                      # 1 = inline, N > 1 = process pool
    use_cache: bool = True
    cache_dir: Optional[str] = None    # None = default cache location
    job_timeout: Optional[float] = None  # seconds; enforced for pool runs
    seed: int = 0                      # threaded into falsification sampling
    # Gram-cone relaxation override: "sos" | "chordal".
    # None keeps each scenario's registered relaxation.
    relaxation: Optional[str] = None
    # Sweep-axis overrides threaded to every job's problem build
    # (``verify --param key=value``): maps declared axis names to absolute
    # values.  None runs the registered nominal scenario.
    params: Optional[Dict[str, float]] = None


# ----------------------------------------------------------------------
# Step implementations (run inside workers; everything crossing the
# boundary is plain data)
# ----------------------------------------------------------------------
def _prepared_problem(scenario: str, relaxation: Optional[str] = None,
                      params: Optional[Dict[str, float]] = None):
    from ..scenarios import build_problem

    return build_problem(scenario, relaxation=relaxation,
                         params=params).fill_option_defaults()


def _step_lyapunov(problem,
                   context: Optional[SolveContext] = None
                   ) -> Tuple[str, str, Dict[str, object]]:
    synthesizer = MultipleLyapunovSynthesizer(
        problem.system, options=problem.options.lyapunov, context=context)
    result = synthesizer.synthesize()
    certificates = {name: cert.certificate
                    for name, cert in result.certificates.items()}
    data = {
        "feasible": bool(result.feasible),
        "message": result.message,
        "solver_status": result.solution.status.value if result.solution else "none",
        "certificates": certificates_to_data(certificates),
        "validations": [str(report) for report in result.validation_reports],
        "degree": problem.options.lyapunov.certificate_degree,
        "relaxation": result.relaxation,
    }
    status = "ok" if result.feasible else "failed"
    return status, result.message, data


def _step_levelset(problem, mode: str,
                   certificate_data: Dict[str, object],
                   context: Optional[SolveContext] = None
                   ) -> Tuple[str, str, Dict[str, object]]:
    certificate = polynomial_from_data(certificate_data)
    options = problem.options
    domain = levelset_domain_for(problem, options, mode)
    maximizer = LevelSetMaximizer(options.levelset, context=context)
    try:
        level_set = maximizer.maximize(mode, certificate, domain,
                                       bounds=problem.state_bounds())
    except CertificateError as exc:
        return "failed", str(exc), {"strategy": options.levelset.strategy}
    data = {
        "level": float(level_set.level),
        "iterations": int(level_set.iterations),
        "certified": len(level_set.certified_levels),
        "rejected": len(level_set.rejected_levels),
        "strategy": options.levelset.strategy,
        "relaxation": level_set.relaxation,
    }
    return "ok", f"level {level_set.level:.4g}", data


def _rebuild_invariant(problem, certificates: Dict[str, Polynomial],
                       levels: Dict[str, Dict[str, object]]) -> AttractiveInvariant:
    level_sets = {
        mode: MaximizedLevelSet(
            mode_name=mode,
            certificate=certificates[mode],
            level=float(entry["level"]),
            iterations=int(entry.get("iterations", 0)),
        )
        for mode, entry in levels.items()
    }
    return AttractiveInvariant(level_sets=level_sets,
                               variables=problem.state_variables)


def _step_advection(problem, mode: str, certificates_data: Dict[str, object],
                    levels: Dict[str, Dict[str, object]],
                    context: Optional[SolveContext] = None
                    ) -> Tuple[str, str, Dict[str, object]]:
    invariant = _rebuild_invariant(
        problem, certificates_from_data(certificates_data), levels)
    result, timings = run_mode_property_two(
        problem, problem.options, mode, invariant, context=context)
    data: Dict[str, object] = {
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "escape_found": bool(result.escape_found),
        "advection_seconds": timings.get("advection", 0.0),
        "inclusion_seconds": timings.get("inclusion", 0.0),
        "escape_seconds": timings.get("escape", 0.0),
        "mode_status": result.status.value,
        "relaxation": result.relaxation,
    }
    status = "ok" if result.status is VerificationStatus.VERIFIED else "failed"
    return status, result.message, data


def _step_falsification(problem, certificates_data: Dict[str, object],
                        levels: Dict[str, Dict[str, object]],
                        seed: int) -> Tuple[str, str, Dict[str, object]]:
    if not problem.supports_falsification:
        return "skipped", "scenario has no executable abstraction", {}
    from ..analysis import random_initial_states, run_falsification

    certificates = certificates_from_data(certificates_data)
    invariant = _rebuild_invariant(problem, certificates, levels)
    tube = problem.options.lyapunov.lock_tube_radius
    rng = np.random.default_rng(seed)
    states = random_initial_states(problem.pll_model,
                                   problem.falsification_count, rng=rng)
    if states.shape[0] == 0:
        # "No findings" must never alias "no simulations ran".
        return "skipped", "no initial states could be sampled", {"seed": seed}
    findings = run_falsification(
        problem.pll_model, invariant, certificates=certificates,
        initial_states=states,
        duration=problem.falsification_duration,
        lock_radius=problem.lock_radius,
        tolerance=problem.options.lyapunov.validation_tolerance,
        tube_radius=tube if tube > 0 else None,
    )
    data = {
        "states_checked": int(states.shape[0]),
        "seed": seed,
        "findings": [str(finding) for finding in findings],
    }
    if findings:
        return "failed", f"{len(findings)} falsification finding(s)", data
    return "ok", "no claim violated by simulation", data


def _run_step(problem, payload: Dict[str, object],
              context: Optional[SolveContext]) -> Tuple[str, str, Dict[str, object]]:
    """Run one scenario job on ``problem``: ``(status, detail, data)``."""
    step = payload["step"]
    if step == STEP_LYAPUNOV:
        return _step_lyapunov(problem, context)
    if step == STEP_LEVELSET:
        return _step_levelset(problem, payload["mode"], payload["certificate"],
                              context)
    if step == JOB_STEP_ADVECTION:
        return _step_advection(problem, payload["mode"], payload["certificates"],
                               payload["levels"], context)
    if step == STEP_FALSIFICATION:
        return _step_falsification(problem, payload["certificates"],
                                   payload["levels"], int(payload.get("seed", 0)))
    raise ValueError(f"unknown engine step {step!r}")


def _execute_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: hermetic execution of one job from plain data.

    Every job runs under its own :class:`~repro.sdp.context.SolveContext`
    (cache + counters) instead of mutating process-global solver
    state, so inline jobs, pool workers and any other pipelines in the same
    process are fully isolated from each other.  The job opens the on-disk
    cache its payload describes (``use_cache``/``cache_dir``), if any.
    """
    start = time.perf_counter()
    cache = CertificateCache(payload.get("cache_dir")) \
        if payload.get("use_cache") else None
    context = SolveContext(cache=cache,
                           name=f"job:{payload.get('scenario')}/{payload.get('step')}")
    try:
        if payload["step"] == STEP_SWEEP:
            # Sweep shards build their own per-point problems; importing
            # lazily keeps engine -> sweep a one-way dependency at runtime.
            from ..sweep.probe import run_sweep_shard

            status, detail, data = run_sweep_shard(payload, context)
        else:
            problem = _prepared_problem(payload["scenario"],
                                        payload.get("relaxation"),
                                        payload.get("params"))
            status, detail, data = _run_step(problem, payload, context)
    except Exception:
        status, detail, data = "error", traceback.format_exc(limit=8), {}
    return {
        "status": status,
        "detail": detail,
        "data": data,
        "seconds": time.perf_counter() - start,
        # The context is fresh per job, so its counters are this job's exact
        # contribution — no before/after diffing against global state.
        "counters": context.solve_counters(),
        # The cache object is fresh per job, so its stats are this job's delta.
        "cache_stats": cache.stats.as_dict() if cache is not None else {},
    }


# ----------------------------------------------------------------------
# Drivers: per-DAG state machines (run in the parent)
# ----------------------------------------------------------------------
class _JobDriver:
    """Tracks one job DAG, releasing jobs as their dependencies resolve.

    The scheduling half of a driver; subclasses plan ``specs`` and build
    each released job's payload in :meth:`_payload_for`.  :func:`_run_jobs`
    drives any number of them.
    """

    def __init__(self, specs: Sequence[JobSpec],
                 job_timeout: Optional[float] = None):
        self.job_timeout = job_timeout
        self.results: Dict[str, JobResult] = {}
        self._released: set = set()
        self.specs: Dict[str, JobSpec] = {spec.job_id: spec for spec in specs}

    def _payload_for(self, spec: JobSpec) -> Dict[str, object]:
        raise NotImplementedError

    def _dependencies_ok(self, spec: JobSpec) -> bool:
        return all(dep in self.results and self.results[dep].status.is_ok
                   for dep in spec.depends_on)

    def _dependencies_settled(self, spec: JobSpec) -> bool:
        return all(dep in self.results for dep in spec.depends_on)

    def take_ready(self) -> List[Tuple[JobSpec, Dict[str, object]]]:
        """Jobs whose dependencies are settled, with assembled payloads.

        Jobs whose dependencies failed are resolved immediately as SKIPPED
        (recorded in ``results``) instead of being scheduled.
        """
        ready: List[Tuple[JobSpec, Dict[str, object]]] = []
        for job_id, spec in self.specs.items():
            if job_id in self.results or job_id in self._released:
                continue
            if not self._dependencies_settled(spec):
                continue
            if not self._dependencies_ok(spec):
                self.results[job_id] = JobResult(
                    job_id=job_id, scenario=spec.scenario, step=spec.step,
                    mode=spec.mode, status=JobStatus.SKIPPED,
                    detail="dependency failed")
                continue
            self._released.add(job_id)
            ready.append((spec, self._payload_for(spec)))
        return ready

    def record(self, spec: JobSpec, outcome: Dict[str, object]) -> None:
        data = dict(outcome.get("data", {}))
        self.results[spec.job_id] = JobResult(
            job_id=spec.job_id, scenario=spec.scenario, step=spec.step,
            mode=spec.mode, status=JobStatus(outcome["status"]),
            seconds=float(outcome.get("seconds", 0.0)),
            detail=str(outcome.get("detail", "")),
            data=data,
            counters=dict(outcome.get("counters", {})),
            cache_stats=dict(outcome.get("cache_stats", {})),
            relaxation=data.get("relaxation"),
        )

    def record_timeout(self, spec: JobSpec, seconds: float) -> None:
        self.results[spec.job_id] = JobResult(
            job_id=spec.job_id, scenario=spec.scenario, step=spec.step,
            mode=spec.mode, status=JobStatus.TIMEOUT, seconds=seconds,
            detail=f"job exceeded {self.job_timeout:.1f}s budget")

    @property
    def done(self) -> bool:
        return len(self.results) == len(self.specs)

    def job_results(self) -> List[JobResult]:
        """Results for every planned job; jobs an aborted run never settled
        are reported as SKIPPED rather than omitted."""
        results = []
        for job_id, spec in self.specs.items():
            result = self.results.get(job_id)
            if result is None:
                result = JobResult(
                    job_id=job_id, scenario=spec.scenario, step=spec.step,
                    mode=spec.mode, status=JobStatus.SKIPPED,
                    detail="not executed (engine run aborted)")
            results.append(result)
        return results


class _ScenarioDriver(_JobDriver):
    """One scenario's verification DAG."""

    def __init__(self, scenario: str, problem, options: EngineOptions):
        self.scenario = scenario
        self.problem = problem
        self.options = options
        super().__init__(self.plan(), options.job_timeout)

    def plan(self) -> List[JobSpec]:
        scenario = self.scenario
        lyap_id = JobSpec.make_id(scenario, STEP_LYAPUNOV)
        specs = [JobSpec(job_id=lyap_id, scenario=scenario, step=STEP_LYAPUNOV)]
        level_ids = []
        for mode in self.problem.system.mode_names:
            job_id = JobSpec.make_id(scenario, STEP_LEVELSET, mode)
            level_ids.append(job_id)
            specs.append(JobSpec(job_id=job_id, scenario=scenario,
                                 step=STEP_LEVELSET, mode=mode,
                                 depends_on=(lyap_id,)))
        if self.problem.options.verify_property_two:
            for mode in self._advection_modes():
                specs.append(JobSpec(
                    job_id=JobSpec.make_id(scenario, JOB_STEP_ADVECTION, mode),
                    scenario=scenario, step=JOB_STEP_ADVECTION, mode=mode,
                    depends_on=tuple(level_ids)))
        if self.problem.supports_falsification:
            specs.append(JobSpec(
                job_id=JobSpec.make_id(scenario, STEP_FALSIFICATION),
                scenario=scenario, step=STEP_FALSIFICATION,
                depends_on=tuple(level_ids)))
        return specs

    def _advection_modes(self) -> Tuple[str, ...]:
        return advection_mode_names(self.problem.options, self.problem.system)

    def _payload_for(self, spec: JobSpec) -> Dict[str, object]:
        options = self.options
        payload: Dict[str, object] = {
            "scenario": spec.scenario,
            "step": spec.step,
            "mode": spec.mode,
            "use_cache": options.use_cache,
            "cache_dir": options.cache_dir,
            "seed": options.seed,
            "relaxation": options.relaxation,
            "params": options.params,
        }
        if spec.step == STEP_LEVELSET:
            lyap = self.results[spec.depends_on[0]].data
            payload["certificate"] = lyap["certificates"][spec.mode]
        elif spec.step in (JOB_STEP_ADVECTION, STEP_FALSIFICATION):
            lyap_id = JobSpec.make_id(spec.scenario, STEP_LYAPUNOV)
            payload["certificates"] = self.results[lyap_id].data["certificates"]
            payload["levels"] = {
                level_spec.mode: self.results[level_spec.job_id].data
                for level_spec in self.specs.values()
                if level_spec.step == STEP_LEVELSET
            }
        return payload


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """Everything the engine learned about one scenario."""

    scenario: str
    expected: str
    matches_expected: bool
    report: VerificationReport
    jobs: List[JobResult]
    counters: Dict[str, int]

    @property
    def statuses(self) -> Dict[str, str]:
        return {job.job_id: job.status.value for job in self.jobs}

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "expected": self.expected,
            "matches_expected": self.matches_expected,
            "counters": dict(self.counters),
            "jobs": [job.to_json_dict() for job in self.jobs],
            "report": self.report.to_json_dict(),
        }


@dataclass
class EngineReport:
    """Aggregated outcome of one engine run."""

    outcomes: List[ScenarioOutcome]
    options: EngineOptions
    wall_seconds: float
    counters: Dict[str, int] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def all_match_expected(self) -> bool:
        return all(outcome.matches_expected for outcome in self.outcomes)

    def outcome(self, scenario: str) -> ScenarioOutcome:
        for entry in self.outcomes:
            if entry.scenario == scenario:
                return entry
        raise KeyError(f"no outcome for scenario {scenario!r}")

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "engine": {
                "jobs": self.options.jobs,
                "use_cache": self.options.use_cache,
                "cache_dir": self.options.cache_dir,
                "seed": self.options.seed,
                "relaxation": self.options.relaxation,
                "wall_seconds": self.wall_seconds,
                "counters": dict(self.counters),
                "cache": cache_rate_summary(self.cache_stats),
            },
            "scenarios": [outcome.to_json_dict() for outcome in self.outcomes],
        }

    def render_text(self) -> str:
        lines = [
            f"Engine run: {len(self.outcomes)} scenario(s), "
            f"jobs={self.options.jobs}, cache={'on' if self.options.use_cache else 'off'}, "
            f"{self.wall_seconds:.1f}s wall",
            f"SDP solves: {self.counters.get('solved', 0)} performed, "
            f"{self.counters.get('cache_hit', 0)} served from cache",
        ]
        cache = cache_rate_summary(self.cache_stats)
        if cache["lookups"]:
            lines.append(
                f"Certificate cache: {cache['hits']}/{cache['lookups']} lookups "
                f"hit ({100.0 * cache['hit_rate']:.1f}%), "
                f"{cache['writes']} write(s)")
        lines.append("")
        for outcome in self.outcomes:
            verdict = "MATCH" if outcome.matches_expected else "MISMATCH"
            lines.append(
                f"[{verdict}] {outcome.scenario}: "
                f"inevitability={outcome.report.inevitability_status.value} "
                f"(expected {outcome.expected})")
            for job in outcome.jobs:
                relax = f" <{job.relaxation}>" if job.relaxation else ""
                lines.append(f"    {job.job_id:40s} {job.status.value:8s} "
                             f"{job.seconds:7.2f}s  {job.detail}{relax}")
            lines.append("")
        return "\n".join(lines)


def _status_from(value: Optional[str]) -> VerificationStatus:
    if not value:
        return VerificationStatus.INCONCLUSIVE
    return VerificationStatus(value)


def _assemble_report(problem, driver: _ScenarioDriver) -> VerificationReport:
    """Fold a scenario's job results into a VerificationReport.

    The only place a report is built: engine runs and the in-process
    :func:`run_in_process` both end here.
    """
    results = driver.results
    scenario = driver.scenario
    options = problem.options
    report = VerificationReport(
        system_name=problem.system.name,
        property_one=PropertyOneResult(status=VerificationStatus.INCONCLUSIVE),
        property_two=PropertyTwoResult(status=VerificationStatus.INCONCLUSIVE),
        options_summary={
            "scenario": scenario,
            "lyapunov_degree": options.lyapunov.certificate_degree,
            "multiplier_degree": options.lyapunov.multiplier_degree,
            "levelset_domain": options.levelset_domain,
            "advection_step": options.advection.time_step,
            "advection_operator": options.advection.operator,
            "uncertainty": problem.uncertainty,
            "relaxation": options.relaxation,
        },
    )

    lyap = results.get(JobSpec.make_id(scenario, STEP_LYAPUNOV))
    if lyap is None:
        return report
    if lyap.seconds:
        report.add_timing(STEP_ATTRACTIVE_INVARIANT, lyap.seconds,
                          detail=f"degree {lyap.data.get('degree', '?')}",
                          relaxation=lyap.relaxation)
    certificates = certificates_from_data(lyap.data.get("certificates") or {})
    if not lyap.status.is_ok:
        report.property_one = PropertyOneResult(
            status=VerificationStatus.INCONCLUSIVE, certificates=certificates,
            message=lyap.detail)
        return report

    level_results = {spec.mode: results[spec.job_id]
                     for spec in driver.specs.values()
                     if spec.step == STEP_LEVELSET and spec.job_id in results}
    levelset_seconds = sum(res.seconds for res in level_results.values())
    if levelset_seconds:
        report.add_timing(STEP_MAX_LEVEL_CURVES, levelset_seconds,
                          detail=f"{len(level_results)} mode(s)",
                          relaxation=join_relaxations(
                              res.relaxation for res in level_results.values()))
    failed = sorted(mode for mode, res in level_results.items()
                    if not res.status.is_ok)
    if failed or not level_results:
        report.property_one = PropertyOneResult(
            status=VerificationStatus.INCONCLUSIVE, certificates=certificates,
            message=f"level-curve maximisation failed for {failed}")
        return report
    report.property_one = PropertyOneResult(
        status=VerificationStatus.VERIFIED, certificates=certificates,
        invariant=_rebuild_invariant(
            problem, certificates,
            {mode: res.data for mode, res in level_results.items()}),
        message="attractive invariant constructed")

    if not options.verify_property_two:
        return report

    per_mode: Dict[str, ModePropertyTwoResult] = {}
    combined = VerificationStatus.VERIFIED
    for spec in driver.specs.values():
        if spec.step != JOB_STEP_ADVECTION or spec.job_id not in results:
            continue
        job = results[spec.job_id]
        if job.status in (JobStatus.SKIPPED, JobStatus.TIMEOUT, JobStatus.ERROR):
            mode_status = VerificationStatus.INCONCLUSIVE
        else:
            mode_status = _status_from(job.data.get("mode_status"))
        iterations = int(job.data.get("iterations", 0))
        per_mode[spec.mode] = ModePropertyTwoResult(
            mode_name=spec.mode, status=mode_status, message=job.detail,
            iterations=iterations,
            converged=bool(job.data.get("converged", False)),
            escape_found=bool(job.data.get("escape_found", False)),
            relaxation=job.relaxation)
        combined = combined.combine(mode_status)
        if job.data.get("advection_seconds"):
            report.add_timing(STEP_ADVECTION, float(job.data["advection_seconds"]),
                              detail=f"{spec.mode}: {iterations} iterations")
        if job.data.get("inclusion_seconds"):
            report.add_timing(STEP_SET_INCLUSION,
                              float(job.data["inclusion_seconds"]),
                              detail=spec.mode, relaxation=job.relaxation)
        if job.data.get("escape_seconds"):
            report.add_timing(STEP_ESCAPE, float(job.data["escape_seconds"]),
                              detail=spec.mode)
    message = ("bounded reachability of X1 established"
               if combined is VerificationStatus.VERIFIED
               else "property 2 could not be fully established")
    report.property_two = PropertyTwoResult(status=combined, per_mode=per_mode,
                                            message=message)

    fals = results.get(JobSpec.make_id(scenario, STEP_FALSIFICATION))
    if fals is not None and fals.status is not JobStatus.SKIPPED:
        report.add_timing(STEP_FALSIFICATION_CHECK, fals.seconds,
                          detail=fals.detail)
    return report


def run_in_process(problem, context: Optional[SolveContext] = None
                   ) -> VerificationReport:
    """Run ``problem``'s job DAG in the calling thread and return its report.

    The jobs are those ``repro verify --jobs 1`` plans for the problem
    (falsification included, seed 0), run on the given problem object
    under one shared ``context`` (``None``: the process default).
    Exceptions propagate instead of becoming error jobs.
    """
    driver = _ScenarioDriver(problem.name, problem, EngineOptions())
    while not driver.done:
        for spec, payload in driver.take_ready():
            start = time.perf_counter()
            status, detail, data = _run_step(problem, payload, context)
            driver.record(spec, {"status": status, "detail": detail,
                                 "data": data,
                                 "seconds": time.perf_counter() - start})
    return _assemble_report(problem, driver)


def _matches_expected(expected: str, report: VerificationReport,
                      driver: _ScenarioDriver) -> bool:
    # An infrastructure failure (crashed worker, exceeded budget) is never
    # the promised mathematical outcome — even for 'inconclusive'/'any'.
    if any(job.status in (JobStatus.ERROR, JobStatus.TIMEOUT)
           for job in driver.job_results()):
        return False
    fals = driver.results.get(
        JobSpec.make_id(driver.scenario, STEP_FALSIFICATION))
    if fals is not None and fals.status is JobStatus.FAILED:
        return False  # a simulated counterexample trumps any certificate
    if expected == "any":
        return True
    if expected == "verified":
        return report.inevitability_verified
    if expected == "property_one":
        return report.property_one.status is VerificationStatus.VERIFIED
    if expected == "inconclusive":
        return report.inevitability_status is VerificationStatus.INCONCLUSIVE
    raise ValueError(f"unknown expected outcome {expected!r}")


def _summed(mappings) -> Dict[str, int]:
    """Key-wise sums of counter dicts; non-numeric values (labels) are skipped."""
    totals: Dict[str, int] = {}
    for mapping in mappings:
        for key, value in mapping.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    return totals


def _engine_report(drivers: Sequence[_ScenarioDriver], options: EngineOptions,
                   start: float) -> EngineReport:
    """Aggregate settled scenario drivers into an :class:`EngineReport`.

    Every job ran under its own SolveContext, so the run totals are the
    exact per-job sums — inline and pooled runs aggregate identically, and
    concurrent engine runs in one process never cross-contaminate.
    """
    outcomes = []
    for driver in drivers:
        report = _assemble_report(driver.problem, driver)
        jobs = driver.job_results()
        outcomes.append(ScenarioOutcome(
            scenario=driver.scenario,
            expected=driver.problem.expected,
            matches_expected=_matches_expected(
                driver.problem.expected, report, driver),
            report=report,
            jobs=jobs,
            counters=_summed(job.counters for job in jobs),
        ))
    return EngineReport(
        outcomes=outcomes,
        options=options,
        wall_seconds=time.perf_counter() - start,
        counters=_summed(outcome.counters for outcome in outcomes),
        cache_stats=_summed(job.cache_stats for outcome in outcomes
                            for job in outcome.jobs),
    )


# ----------------------------------------------------------------------
# The job loop
# ----------------------------------------------------------------------
class _InlineExecutor:
    """``jobs=1``: run everything synchronously through the Future API."""

    def submit(self, fn, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # a worker only lets Ctrl-C escape
            future.set_exception(exc)
        return future


def _run_jobs(drivers: Sequence[_JobDriver], jobs: int,
              execute: Callable[[Dict[str, object]], Dict[str, object]],
              job_timeout: Optional[float] = None) -> None:
    """Run every driver's DAG until each job is settled: the only job loop.

    A driver is anything with ``take_ready()``, ``record(spec, outcome)``,
    ``record_timeout(spec, seconds)`` and ``done``; ``execute`` maps a
    payload to an outcome dict (:func:`_execute_job`, passed by the caller
    so each module's own reference to it is the one called).  ``jobs=1``
    runs inline, ``jobs>1`` over a process pool.  Dead workers, exceeded
    ``job_timeout`` budgets and Ctrl-C settle the affected jobs as errors
    or timeouts; on Ctrl-C the loop returns early and leaves the jobs it
    never started unsettled.
    """
    executor = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 \
        else _InlineExecutor()
    active: Dict[Future, Tuple[_JobDriver, JobSpec, float]] = {}
    ready_queue: List[Tuple[_JobDriver, JobSpec, Dict[str, object]]] = []
    timed_out_running = False
    interrupted = False
    zombie_workers = 0   # workers stuck in a timed-out, uncancellable job
    try:
        while True:
            for driver in drivers:
                for spec, payload in driver.take_ready():
                    ready_queue.append((driver, spec, payload))
            # Submit at most one job per *live* worker slot: an
            # executor-queued future never starts executing, so admitting
            # more would let the per-job timeout fire on jobs that were
            # merely waiting for a slot.  Workers stuck in a timed-out
            # solve still occupy their slot until teardown, so they no
            # longer count as capacity.
            live_slots = max(1, jobs) - zombie_workers
            if live_slots <= 0:
                # Every worker is wedged: resolve the runnable jobs as
                # errors rather than queueing work that can never start
                # (anything further down the DAG is reported as skipped
                # by job_results()).
                for driver, spec, _payload in ready_queue:
                    driver.record(spec, {
                        "status": "error",
                        "detail": "worker pool exhausted by timed-out jobs"})
                ready_queue.clear()
                break
            while ready_queue and len(active) < live_slots:
                driver, spec, payload = ready_queue.pop(0)
                LOGGER.info("submitting %s", spec.job_id)
                try:
                    future = executor.submit(execute, payload)
                except Exception as exc:  # e.g. BrokenProcessPool
                    driver.record(spec, {"status": "error",
                                         "detail": f"submission failed: {exc}"})
                    continue
                active[future] = (driver, spec, time.perf_counter())
            if not active:
                if not ready_queue and all(driver.done for driver in drivers):
                    break
                # Nothing running and nothing submittable: every remaining
                # job waits on a settled-but-failed dependency; the next
                # take_ready pass records the skips.
                continue
            done, _ = wait(list(active), timeout=0.25,
                           return_when=FIRST_COMPLETED)
            now = time.perf_counter()
            for future in done:
                driver, spec, started = active[future]
                try:
                    outcome = future.result()
                except Exception as exc:  # dead worker / broken pool
                    outcome = {"status": "error",
                               "detail": f"{type(exc).__name__}: {exc}",
                               "seconds": now - started}
                # Popped only now: a Ctrl-C re-raised by result() leaves the
                # job active, so the handler below settles it.
                del active[future]
                driver.record(spec, outcome)
                LOGGER.info("finished %s: %s", spec.job_id,
                            driver.results[spec.job_id].status.value)
            if job_timeout is not None:
                for future in list(active):
                    driver, spec, started = active[future]
                    if now - started > job_timeout:
                        # cancel() only stops a future that has not
                        # started; a running pool task keeps its worker
                        # (and its slot) until the teardown below
                        # terminates it.
                        if not future.cancel():
                            timed_out_running = True
                            zombie_workers += 1
                        active.pop(future)
                        driver.record_timeout(spec, now - started)
                        LOGGER.warning("job %s timed out", spec.job_id)
    except KeyboardInterrupt:
        # Ctrl-C mid-run: resolve inflight jobs as errors and return, so
        # the caller reports a well-formed partial run and the pool
        # teardown below reaps the children instead of leaving them
        # orphaned behind a dead parent.
        interrupted = True
        now = time.perf_counter()
        for future, (driver, spec, started) in list(active.items()):
            future.cancel()
            driver.record(spec, {
                "status": "error", "detail": "interrupted (Ctrl-C)",
                "seconds": now - started})
        active.clear()
        LOGGER.warning("run interrupted; returning partial results")
    finally:
        if isinstance(executor, ProcessPoolExecutor):
            # Listed before shutdown(), which drops the pool's process table.
            workers = list((executor._processes or {}).values())
            executor.shutdown(wait=False, cancel_futures=True)
            if timed_out_running or interrupted:
                # Workers stuck in a timed-out solve (or still mid-job when
                # the user hit Ctrl-C) would otherwise be joined by
                # concurrent.futures' atexit hook, hanging the CLI at
                # interpreter shutdown — or survive it as orphans.
                for process in workers:
                    try:
                        process.terminate()
                    except Exception:  # pragma: no cover - best effort
                        pass


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class VerificationEngine:
    """Expand scenarios into job DAGs and run them to completion."""

    def __init__(self, options: Optional[EngineOptions] = None):
        self.options = options or EngineOptions()

    # ------------------------------------------------------------------
    def plan(self, scenario: str) -> List[JobSpec]:
        """The DAG the engine would run for one scenario (introspection)."""
        problem = _prepared_problem(scenario, self.options.relaxation)
        driver = _ScenarioDriver(scenario, problem, self.options)
        return list(driver.specs.values())

    # ------------------------------------------------------------------
    def run(self, scenarios: Sequence[str]) -> EngineReport:
        options = self.options
        start = time.perf_counter()
        drivers = [_ScenarioDriver(name, _prepared_problem(name, options.relaxation),
                                   options) for name in scenarios]
        _run_jobs(drivers, options.jobs, _execute_job, options.job_timeout)
        return _engine_report(drivers, options, start)
