"""The sweep execution planner.

Turns a :class:`~repro.sweep.families.SweepFamily` into one engine-shaped
run:

1. **Anchor synthesis** — one Lyapunov job at the family's anchor parameters
   (the registered nominal by default), executed through the engine's
   hermetic :func:`~repro.engine.engine._execute_job` so it shares the
   certificate cache with ``repro verify``.
2. **Point shards** — the family's points are chunked so every worker slot
   gets one contiguous shard (``ceil(points / jobs)`` by default), and each
   shard travels as a single ``sweep_shard`` job through the same executors
   the engine uses: inline for ``jobs=1``, a local process pool for
   ``jobs>1``.  Per shard, the probe family pays one structural compile
   of its :class:`~repro.sos.parametric.MultiParametricSOSProgram`, each
   point is a pure array bind, and the sampling gate reuses the models the
   compile built.
3. **Aggregation** — shard outcomes fold into the deterministic feasibility
   frontier (:mod:`repro.sweep.frontier`) plus a nondeterministic ``run``
   telemetry section; progress persists after every shard so ``--resume``
   re-dispatches only the missing points.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.cache import cache_rate_summary, default_cache_dir
from ..engine.engine import _InlineExecutor, _execute_job
from ..engine.jobs import STEP_LYAPUNOV, STEP_SWEEP
from ..exceptions import CertificateError
from ..scenarios.registry import get_scenario
from ..utils import get_logger
from .families import SweepFamily, SweepPoint, get_sweep_family
from .frontier import build_frontier, render_frontier_text
from .progress import SweepProgress

LOGGER = get_logger("sweep.planner")


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


def _merge_counts(total: Dict[str, int], delta: Dict[str, object]) -> None:
    for key, value in delta.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value


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
        from pathlib import Path

        return str(Path(base) / "sweeps")

    def _base_payload(self, family: SweepFamily) -> Dict[str, object]:
        options = self.options
        return {
            "scenario": family.scenario,
            "use_cache": options.use_cache,
            "cache_dir": options.cache_dir,
        }

    # ------------------------------------------------------------------
    def _anchor_certificates(self, family: SweepFamily
                             ) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Synthesize (or replay from cache) the family's anchor certificates.

        Runs inline in the parent — a single job that every shard depends
        on — with the scenario's *registered* relaxation and the family's
        anchor parameters, so nominal-anchored sweeps share cache entries
        with plain ``repro verify`` runs.
        """
        anchor = family.anchor_params()
        payload = dict(self._base_payload(family))
        payload.update({
            "step": STEP_LYAPUNOV,
            "mode": None,
            "seed": 0,
            "relaxation": None,
            "params": anchor or None,
        })
        outcome = _execute_job(payload)
        data = outcome.get("data", {})
        info = {
            "status": outcome.get("status"),
            "seconds": float(outcome.get("seconds", 0.0)),
            "relaxation": data.get("relaxation"),
            "params": dict(anchor),
            "counters": dict(outcome.get("counters", {})),
            "cache_stats": dict(outcome.get("cache_stats", {})),
        }
        if outcome.get("status") != "ok" or not data.get("feasible"):
            raise SweepError(
                f"anchor synthesis for family {family.name!r} "
                f"({family.scenario}) failed: {outcome.get('detail')}")
        return data["certificates"], info

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

        certificates, anchor_info = self._anchor_certificates(family)

        counters: Dict[str, int] = {}
        cache_totals: Dict[str, int] = {}
        structures: Dict[str, Dict[str, object]] = {}
        _merge_counts(counters, anchor_info["counters"])
        _merge_counts(cache_totals, anchor_info["cache_stats"])

        shard_errors: List[str] = []
        shards: List[List[SweepPoint]] = []
        if pending:
            shard_size = options.shard_size or \
                max(1, math.ceil(len(pending) / max(1, options.jobs)))
            shards = _chunk(pending, shard_size)
            self._run_shards(family, certificates, shards, completed,
                             progress, counters, cache_totals, structures,
                             shard_errors)

        progress.save(completed, completed=len(completed) == len(points))
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
            "anchor": anchor_info,
            "counters": counters,
            "cache": cache_rate_summary(cache_totals),
            "structures": structures,
            "progress_path": str(progress.path),
        }
        return SweepReport(family=family.config(), frontier=frontier, run=run)

    # ------------------------------------------------------------------
    def _run_shards(self, family: SweepFamily,
                    certificates: Dict[str, object],
                    shards: List[List[SweepPoint]],
                    completed: Dict[int, Dict[str, object]],
                    progress: SweepProgress,
                    counters: Dict[str, int],
                    cache_totals: Dict[str, int],
                    structures: Dict[str, Dict[str, object]],
                    shard_errors: List[str]) -> None:
        options = self.options
        base, steps = family.parametrization()
        shard_payloads = []
        for shard in shards:
            payload = dict(self._base_payload(family))
            payload.update({
                "step": STEP_SWEEP,
                "mode": None,
                "certificates": certificates,
                "base": base,
                "steps": steps,
                "anchor_params": family.anchor_params(),
                "points": [{"index": point.index,
                            "params": point.params_dict}
                           for point in shard],
            })
            shard_payloads.append(payload)

        if options.jobs > 1 and len(shard_payloads) > 1:
            executor = ProcessPoolExecutor(max_workers=options.jobs)
        else:
            executor = _InlineExecutor()

        active: Dict[Future, int] = {}
        queue = list(enumerate(shard_payloads))
        try:
            while queue or active:
                while queue and len(active) < max(1, options.jobs):
                    shard_id, payload = queue.pop(0)
                    LOGGER.info("submitting sweep shard %d/%d (%d point(s))",
                                shard_id + 1, len(shard_payloads),
                                len(payload["points"]))
                    try:
                        future = executor.submit(_execute_job, payload)
                    except Exception as exc:
                        shard_errors.append(f"submission failed: {exc}")
                        continue
                    active[future] = shard_id
                if not active:
                    break
                done, _ = wait(list(active), timeout=0.25,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    shard_id = active.pop(future)
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        shard_errors.append(f"{type(exc).__name__}: {exc}")
                        continue
                    if outcome.get("status") != "ok":
                        shard_errors.append(str(outcome.get("detail")))
                        continue
                    data = outcome.get("data", {})
                    for point in data.get("points", []):
                        completed[int(point["index"])] = point
                    for relaxation, stats in data.get("structures", {}).items():
                        entry = structures.setdefault(relaxation, {
                            "mode": stats.get("mode"),
                            "sampling": stats.get("sampling")})
                        for path in ("mode", "sampling"):
                            if entry[path] != stats.get(path):
                                entry[path] = "mixed"
                        _merge_counts(entry, stats)
                    _merge_counts(counters, outcome.get("counters", {}))
                    _merge_counts(cache_totals, outcome.get("cache_stats", {}))
                    progress.save(completed)
        finally:
            if isinstance(executor, ProcessPoolExecutor):
                executor.shutdown(wait=False, cancel_futures=True)
            else:
                executor.shutdown(wait=False)


def run_sweep(family: object, options: Optional[SweepOptions] = None,
              **overrides) -> SweepReport:
    """Convenience wrapper: build options from kwargs and run one family."""
    if options is None:
        options = SweepOptions(**overrides)
    elif overrides:
        raise TypeError("pass either options or keyword overrides, not both")
    return SweepRunner(options).run(family)
