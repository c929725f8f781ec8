"""The benchmark workloads.

Each workload has a ``setup`` (repeated and timed as set-up), and a ``rep``
(one timed repetition) that returns a :class:`Rep`: the timed seconds, the
operations it attempted and failed, the exact counts that must repeat, and
the output-check messages.  Only public ``repro`` API is driven.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

SCENARIO = "pll3"
#: Certified level of each mode's attractive invariant (registered pll3).
EXPECTED_LEVELS = {"mode1": 0.2347, "mode2": 0.1224, "mode3": 0.1224}
#: The level-curve bisection tolerance the levels are checked against.
LEVEL_TOLERANCE = 0.05

LADDER_FAMILY = "pll3_ip_ladder"
LADDER_POINTS = 200
#: Certified i_p range of the 200-point ladder and its size.
LADDER_RANGE = (0.000465829, 0.0005)
LADDER_CERTIFIED = 18


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class Rep:
    seconds: float                # the timed phase
    attempted: int
    failed: int
    counts: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    wall: Optional[float] = None  # whole traced call, when wider than seconds
    started: float = 0.0          # perf_counter() when the timed call began

    @property
    def traced_wall(self) -> float:
        return self.seconds if self.wall is None else self.wall


def _options_digest() -> Dict[str, str]:
    from repro.scenarios import build_problem, get_scenario

    spec = get_scenario(SCENARIO)
    problem = build_problem(SCENARIO)
    return {"scenario": digest([spec.summary_row(), dict(spec.solver_settings)]),
            "options": digest(repr(problem.options))}


def _level_problem(mode: str, level: Optional[float]) -> Optional[str]:
    if level is None or abs(level - EXPECTED_LEVELS[mode]) > LEVEL_TOLERANCE:
        return f"{mode} level {level} is not {EXPECTED_LEVELS[mode]} ± {LEVEL_TOLERANCE}"
    return None


class Pll3Warm:
    """``VerificationEngine(jobs=1).run(["pll3"])`` on a populated cache."""

    name = "pll3_warm"
    nominal_rep_s = 7.5

    def __init__(self, root: Path, seed: int, built_cache: Path) -> None:
        self.root = root
        self.seed = seed
        self.built_cache = built_cache
        self.cache_dir: Optional[str] = None

    def setup(self) -> Dict[str, object]:
        from repro.engine import EngineOptions, VerificationEngine

        cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.root)
        shutil.copytree(self.built_cache, cache_dir, dirs_exist_ok=True)
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = cache_dir
        self.engine = VerificationEngine(
            EngineOptions(jobs=1, cache_dir=cache_dir, seed=self.seed))
        plan = [spec.job_id for spec in self.engine.plan(SCENARIO)]
        return {"plan": digest(plan), **_options_digest()}

    def rep(self) -> Rep:
        start = time.perf_counter()
        report = self.engine.run([SCENARIO])
        seconds = time.perf_counter() - start

        outcome = report.outcome(SCENARIO)
        problems: List[str] = []
        failed_jobs = set()
        for job in outcome.jobs:
            status = job.status.value
            problem = None
            if status in ("error", "timeout", "skipped"):
                problem = f"{job.job_id}: {status}: {job.detail.strip()[:200]}"
            elif job.step == "levelset":
                problem = _level_problem(job.mode, job.data.get("level"))
            elif job.step in ("lyapunov", "falsification") and status != "ok":
                problem = f"{job.job_id}: {status}: {job.detail}"
            # An advection job that did not immerse is a verdict, not a failure.
            if problem:
                problems.append(problem)
                failed_jobs.add(job.job_id)
        cache = report.cache_stats
        solved = report.counters.get("solved", 0)
        if not outcome.matches_expected:
            problems.append(f"{SCENARIO} does not match expected {outcome.expected}")
        if solved or cache.get("misses", 0) or cache.get("writes", 0) \
                or not cache.get("hits", 0):
            problems.append(f"warm run was not a pure replay: {solved} solves, "
                            f"cache {cache}")
        if problems and not failed_jobs:
            failed_jobs = {job.job_id for job in outcome.jobs}
        return Rep(seconds=seconds, attempted=len(outcome.jobs),
                   failed=len(failed_jobs), problems=problems, started=start,
                   counts={"sdp.solves": solved,
                           "engine.cache_hits": cache.get("hits", 0)})


class IpLadder:
    """The 200-point ``pll3_ip_ladder`` recertification, ``jobs=1``.

    The anchor certificate comes from the set-up cache (it is the cache
    entry of pll3's Lyapunov step), so only the per-point work is timed.
    """

    name = "ip_ladder"
    nominal_rep_s = 12.5

    def __init__(self, root: Path, seed: int, built_cache: Path) -> None:
        self.root = root
        self.seed = seed    # the ladder's points and sampling are fixed
        self.built_cache = built_cache

    def setup(self) -> Dict[str, object]:
        from repro.sweep import get_sweep_family

        self.family = get_sweep_family(LADDER_FAMILY).reconfigure(
            samples=LADDER_POINTS)
        return {"plan": self.family.fingerprint(), **_options_digest()}

    def rep(self) -> Rep:
        from repro.sweep import SweepOptions, SweepRunner

        cache_dir = tempfile.mkdtemp(prefix="ladder-", dir=self.root)
        shutil.copytree(self.built_cache, cache_dir, dirs_exist_ok=True)
        runner = SweepRunner(SweepOptions(jobs=1, cache_dir=cache_dir))
        start = time.perf_counter()
        report = runner.run(self.family)
        wall = time.perf_counter() - start
        shutil.rmtree(cache_dir, ignore_errors=True)

        run = report.run
        anchor = run["anchor"]
        seconds = wall - float(anchor["seconds"])
        points = report.points
        problems: List[str] = []
        failed = 0
        for point in points:
            expected = point["params"]["i_p"] >= LADDER_RANGE[0]
            if bool(point["certified"]) != expected:
                failed += 1
        if failed:
            problems.append(f"{failed} point(s) certified contrary to the "
                            f"frontier i_p >= {LADDER_RANGE[0]}")
        certified = report.certified
        ip_range = report.frontier["axes"]["i_p"]["certified_range"]
        if certified != LADDER_CERTIFIED or not ip_range or any(
                abs(got - want) > 1e-6 * want
                for got, want in zip(ip_range, LADDER_RANGE)):
            problems.append(f"certified {certified}/{len(points)} on {ip_range}, "
                            f"expected {LADDER_CERTIFIED} on {list(LADDER_RANGE)}")
        structures = run["structures"]
        compiles = sum(s.get("parametric_compiles", 0) for s in structures.values())
        rebuilds = sum(s.get("rebuild_compiles", 0) for s in structures.values())
        if compiles > 1 or rebuilds:
            problems.append(f"{compiles} parametric compiles, {rebuilds} rebuilds")
        if anchor["counters"].get("solved", 0):
            problems.append("the anchor was re-synthesised inside the timed phase")
        if len(points) != LADDER_POINTS:
            problems.append(f"{len(points)} points instead of {LADDER_POINTS}")
            failed = LADDER_POINTS
        elif problems and not failed:
            failed = len(points)
        rejected = sum(1 for point in points if not point["sampling"])
        return Rep(seconds=seconds, attempted=LADDER_POINTS, failed=failed,
                   problems=problems, wall=wall, started=start,
                   counts={"sdp.solves": run["counters"].get("solved", 0),
                           "sos.binds": sum(s.get("binds", 0)
                                            for s in structures.values()),
                           "sweep.certified_frac": certified / LADDER_POINTS},
                   layer={"sweep.sampling_reject_frac": rejected / LADDER_POINTS,
                          "sweep.certified_frac": certified / LADDER_POINTS})


WORKLOADS = {cls.name: cls for cls in (Pll3Warm, IpLadder)}
