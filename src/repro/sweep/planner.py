"""The sweep execution planner.

Turns a :class:`~repro.sweep.families.SweepFamily` into one job DAG that
the engine's job loop (:func:`~repro.engine.engine._run_jobs`) drives,
inline for ``jobs=1`` or over a local process pool:

1. **Anchor synthesis** — one Lyapunov job at the family's anchor parameters
   (the registered nominal by default), so it shares the certificate cache
   with ``repro verify``.
2. **Point shards** — the family's points are chunked so every worker slot
   gets one contiguous shard (``ceil(points / jobs)`` by default), and each
   shard is one ``sweep_shard`` job that depends on the anchor and carries
   its certificates.  Per shard, the probe family pays one structural
   compile of its :class:`~repro.sos.parametric.MultiParametricSOSProgram`,
   each point is a pure array bind, and the sampling gate reuses the models
   the compile built.
3. **Aggregation** — shard outcomes fold into the deterministic feasibility
   frontier (:mod:`repro.sweep.frontier`) plus a nondeterministic ``run``
   telemetry section; progress persists after every shard so ``--resume``
   re-dispatches only the missing points.  A failed anchor, or any shard
   that does not end ``ok`` (error, dead worker, Ctrl-C), is a
   :class:`SweepError`.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..engine.cache import cache_rate_summary, default_cache_dir
from ..engine.engine import _JobDriver, _execute_job, _run_jobs, _summed
from ..engine.jobs import STEP_LYAPUNOV, STEP_SWEEP, JobSpec
from ..exceptions import CertificateError
from ..scenarios.registry import get_scenario
from .families import SweepFamily, SweepPoint, get_sweep_family
from .frontier import build_frontier, render_frontier_text
from .progress import SweepProgress


class SweepError(CertificateError):
    """A sweep could not run (anchor synthesis failed, bad reconfiguration)."""


@dataclass
class SweepOptions:
    """Configuration of one sweep run (mirrors ``EngineOptions`` knobs)."""

    jobs: int = 1
    use_cache: bool = True
    cache_dir: Optional[str] = None
    # Family reshaping (CLI --grid/--samples/--seed):
    grid: Optional[Dict[str, Tuple[float, float, int]]] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    # Points per shard job; None = ceil(points / jobs) so every worker slot
    # gets one shard and the probe structure compiles exactly once per slot.
    shard_size: Optional[int] = None
    resume: bool = False


@dataclass
class SweepReport:
    """Aggregated outcome of one sweep run."""

    family: Dict[str, object]
    frontier: Dict[str, object]
    run: Dict[str, object] = field(default_factory=dict)

    @property
    def points(self) -> List[Dict[str, object]]:
        return list(self.frontier.get("points", []))

    @property
    def certified(self) -> int:
        return int(self.frontier.get("summary", {}).get("certified", 0))

    def to_json_dict(self) -> Dict[str, object]:
        return {"frontier": self.frontier, "run": self.run}

    def render_text(self) -> str:
        lines = [render_frontier_text(self.frontier)]
        run = self.run
        anchor = run.get("anchor", {})
        lines.append(
            f"  anchor: {anchor.get('status', '?')} in "
            f"{anchor.get('seconds', 0.0):.2f}s "
            f"(relaxation {anchor.get('relaxation', '?')})")
        counters = run.get("counters", {})
        lines.append(
            f"  run: {run.get('wall_seconds', 0.0):.1f}s wall, "
            f"jobs={run.get('jobs', 1)}, {run.get('shards', 0)} shard(s), "
            f"{counters.get('solved', 0)} SDP solve(s), "
            f"{counters.get('cache_hit', 0)} cache hit(s)")
        cache = run.get("cache", {})
        if cache.get("lookups"):
            lines.append(
                f"  certificate cache: {cache['hits']}/{cache['lookups']} "
                f"lookups hit ({100.0 * cache['hit_rate']:.1f}%), "
                f"{cache['writes']} write(s)")
        structures = run.get("structures", {})
        for relaxation in sorted(structures):
            entry = structures[relaxation]
            lines.append(
                f"  structure[{relaxation}]: mode={entry.get('mode')}, "
                f"sampling={entry.get('sampling')}, "
                f"{entry.get('model_builds', 0)} model build(s), "
                f"{entry.get('structure_compiles', 0)} structural compile(s), "
                f"{entry.get('binds', 0)} bind(s), "
                f"{entry.get('rebuild_compiles', 0)} rebuild(s)")
        if run.get("resumed_points"):
            lines.append(f"  resumed: {run['resumed_points']} point(s) "
                         "restored from progress file")
        return "\n".join(lines)


def _chunk(points: Sequence[SweepPoint], size: int) -> List[List[SweepPoint]]:
    return [list(points[start:start + size])
            for start in range(0, len(points), size)]


def _structure_totals(shard_stats) -> Dict[str, Dict[str, object]]:
    """Per-relaxation probe-structure stats summed over shards; a path
    (``mode``/``sampling``) that differs between shards reads ``mixed``."""
    structures: Dict[str, Dict[str, object]] = {}
    for stats_by_relaxation in shard_stats:
        for relaxation, stats in stats_by_relaxation.items():
            entry = structures.setdefault(relaxation, {
                "mode": stats.get("mode"), "sampling": stats.get("sampling")})
            for path in ("mode", "sampling"):
                if entry[path] != stats.get(path):
                    entry[path] = "mixed"
            entry.update(_summed((entry, stats)))
    return structures


class _SweepDriver(_JobDriver):
    """A sweep's DAG: one anchor Lyapunov job, then one job per shard.

    Every shard depends on the anchor and carries its certificates;
    recording a shard folds its points into ``completed`` and saves
    progress.
    """

    def __init__(self, family: SweepFamily, options: SweepOptions,
                 shards: List[List[SweepPoint]],
                 completed: Dict[int, Dict[str, object]],
                 progress: SweepProgress):
        self.family = family
        self.options = options
        self.completed = completed
        self.progress = progress
        self.anchor_id = JobSpec.make_id(family.scenario, STEP_LYAPUNOV)
        self._shards = {
            f"{family.name}/{STEP_SWEEP}:{index}": shard
            for index, shard in enumerate(shards)}
        specs = [JobSpec(job_id=self.anchor_id, scenario=family.scenario,
                         step=STEP_LYAPUNOV)]
        specs.extend(JobSpec(job_id=job_id, scenario=family.scenario,
                             step=STEP_SWEEP, depends_on=(self.anchor_id,))
                     for job_id in self._shards)
        super().__init__(specs)

    def _payload_for(self, spec: JobSpec) -> Dict[str, object]:
        family = self.family
        payload: Dict[str, object] = {
            "scenario": family.scenario,
            "step": spec.step,
            "mode": None,
            "use_cache": self.options.use_cache,
            "cache_dir": self.options.cache_dir,
        }
        if spec.step == STEP_LYAPUNOV:
            # The scenario's *registered* relaxation, so nominal-anchored
            # sweeps share cache entries with plain ``repro verify`` runs.
            payload.update({"seed": 0, "relaxation": None,
                            "params": family.anchor_params() or None})
            return payload
        base, steps = family.parametrization()
        payload.update({
            "certificates": self.results[self.anchor_id].data["certificates"],
            "base": base,
            "steps": steps,
            "anchor_params": family.anchor_params(),
            "points": [{"index": point.index, "params": point.params_dict}
                       for point in self._shards[spec.job_id]],
        })
        return payload

    def record(self, spec: JobSpec, outcome: Dict[str, object]) -> None:
        super().record(spec, outcome)
        result = self.results[spec.job_id]
        if spec.step == STEP_SWEEP and result.status.is_ok:
            for point in result.data.get("points", []):
                self.completed[int(point["index"])] = point
            self.progress.save(self.completed)


class SweepRunner:
    """Plan and execute one sweep family end to end."""

    def __init__(self, options: Optional[SweepOptions] = None):
        self.options = options or SweepOptions()

    # ------------------------------------------------------------------
    def resolve_family(self, family: object) -> SweepFamily:
        """A reshaped copy of the requested family (name or instance)."""
        if isinstance(family, str):
            family = get_sweep_family(family)
        options = self.options
        if options.grid or options.samples is not None \
                or options.seed is not None:
            try:
                family = family.reconfigure(grid=options.grid,
                                            samples=options.samples,
                                            seed=options.seed)
            except ValueError as exc:
                raise SweepError(str(exc)) from exc
        return family

    def _progress_dir(self) -> str:
        root = self.options.cache_dir
        base = default_cache_dir() if root is None else root
        return str(Path(base) / "sweeps")

    # ------------------------------------------------------------------
    def run(self, family: object) -> SweepReport:
        options = self.options
        start = time.perf_counter()
        family = self.resolve_family(family)

        points = list(family.points())
        if not points:
            raise SweepError(f"family {family.name!r} expands to no points")

        progress = SweepProgress(self._progress_dir(), family.name,
                                 family.fingerprint())
        completed: Dict[int, Dict[str, object]] = {}
        if options.resume:
            completed = progress.load()
            known = {point.index for point in points}
            completed = {index: outcome for index, outcome in completed.items()
                         if index in known}
        resumed = len(completed)
        pending = [point for point in points if point.index not in completed]

        shards: List[List[SweepPoint]] = []
        if pending:
            shard_size = options.shard_size or \
                max(1, math.ceil(len(pending) / max(1, options.jobs)))
            shards = _chunk(pending, shard_size)
        driver = _SweepDriver(family, options, shards, completed, progress)
        # The pool pays off only with more than one shard to spread.
        _run_jobs([driver], min(options.jobs, len(shards)), _execute_job)

        jobs = driver.job_results()
        anchor, shard_jobs = jobs[0], jobs[1:]
        if not anchor.status.is_ok:
            raise SweepError(
                f"anchor synthesis for family {family.name!r} "
                f"({family.scenario}) failed: {anchor.detail}")
        progress.save(completed, completed=len(completed) == len(points))
        shard_errors = [job.detail for job in shard_jobs if not job.status.is_ok]
        if shard_errors:
            raise SweepError(
                f"{len(shard_errors)} sweep shard(s) failed "
                f"(progress saved; re-run with --resume): {shard_errors[0]}")

        frontier = build_frontier(family.config(), family.fingerprint(),
                                  get_scenario(family.scenario).relaxation,
                                  list(completed.values()))
        run = {
            "wall_seconds": time.perf_counter() - start,
            "jobs": options.jobs,
            "use_cache": options.use_cache,
            "shards": len(shards),
            "resumed_points": resumed,
            "anchor": {
                "status": anchor.status.value,
                "seconds": anchor.seconds,
                "relaxation": anchor.relaxation,
                "params": dict(family.anchor_params()),
                "counters": anchor.counters,
                "cache_stats": anchor.cache_stats,
            },
            "counters": _summed(job.counters for job in jobs),
            "cache": cache_rate_summary(_summed(job.cache_stats for job in jobs)),
            "structures": _structure_totals(
                job.data.get("structures", {}) for job in shard_jobs),
            "progress_path": str(progress.path),
        }
        return SweepReport(family=family.config(), frontier=frontier, run=run)
