"""Structured metrics snapshots (JSON and Prometheus-style text).

The counters have always existed — :class:`~repro.sdp.context.SolveContext`
tracks solve/compile counts per cone layout, :class:`~repro.engine.cache.CacheStats`
tracks hit rates, reports track per-stage timings — this module exports them
as one structured snapshot consumed by ``repro report --metrics``, so "fast
as the hardware allows" is measured, not asserted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .cache import cache_rate_summary

#: Version tag of the metrics snapshot layout.
METRICS_SCHEMA = 1


def _split_counters(counters: Dict[str, int]) -> Dict[str, object]:
    """Split ``{"solved": n, "solved:psd": k, ...}`` into totals + layouts."""
    out: Dict[str, object] = {}
    for event in ("solved", "cache_hit"):
        by_layout = {key.split(":", 1)[1]: int(value)
                     for key, value in counters.items()
                     if key.startswith(f"{event}:")}
        out[event] = {"total": int(counters.get(event, 0)),
                      "by_layout": by_layout}
    return out


def engine_metrics(payload: Dict[str, object]) -> Dict[str, object]:
    """Metrics snapshot of one engine report's JSON payload."""
    engine = payload.get("engine", {})
    stages: Dict[str, float] = {}
    jobs_by_status: Dict[str, int] = {}
    for scenario in payload.get("scenarios", []):
        for timing in scenario.get("report", {}).get("timings", []):
            step = str(timing.get("step"))
            stages[step] = stages.get(step, 0.0) + float(timing.get("seconds", 0.0))
        for job in scenario.get("jobs", []):
            status = str(job.get("status"))
            jobs_by_status[status] = jobs_by_status.get(status, 0) + 1
    return {
        "schema": METRICS_SCHEMA,
        "solves": _split_counters(engine.get("counters", {})),
        # One arithmetic for hit rates everywhere: engine reports, sweep
        # frontiers and these metrics all quote cache_rate_summary.
        "cache": cache_rate_summary(engine.get("cache", {})),
        "stages": stages,
        "jobs": {"total": sum(jobs_by_status.values()),
                 "by_status": jobs_by_status},
        "wall_seconds": float(engine.get("wall_seconds", 0.0)),
    }


# ----------------------------------------------------------------------
# Prometheus-style text exposition
# ----------------------------------------------------------------------
def _samples(metrics: Dict[str, object]) -> List[Tuple[str, Optional[Dict[str, str]], float]]:
    samples: List[Tuple[str, Optional[Dict[str, str]], float]] = []
    solves = metrics.get("solves", {})
    for event, prom in (("solved", "solves"), ("cache_hit", "cache_hits")):
        section = solves.get(event)
        if not isinstance(section, dict):
            continue
        samples.append((f"{prom}_total", None, section.get("total", 0)))
        for layout, count in sorted(section.get("by_layout", {}).items()):
            samples.append((f"{prom}_total", {"layout": layout}, count))
    cache = metrics.get("cache")
    if isinstance(cache, dict):
        for key in ("hits", "misses", "writes", "corrupted"):
            samples.append((f"certificate_cache_{key}_total", None, cache.get(key, 0)))
        samples.append(("certificate_cache_hit_rate", None, cache.get("hit_rate", 0.0)))
    for step, seconds in sorted(dict(metrics.get("stages", {})).items()):
        samples.append(("stage_seconds_total", {"step": step}, seconds))
    jobs = metrics.get("jobs", {})
    if isinstance(jobs, dict):
        for status, count in sorted(dict(jobs.get("by_status", {})).items()):
            samples.append(("jobs_total", {"status": status}, count))
    if "wall_seconds" in metrics:
        samples.append(("wall_seconds", None, metrics["wall_seconds"]))
    return samples


def render_prometheus(metrics: Dict[str, object], prefix: str = "repro") -> str:
    """Render a metrics snapshot as Prometheus text-exposition lines."""
    lines: List[str] = []
    for name, labels, value in _samples(metrics):
        label_text = ""
        if labels:
            inner = ",".join(f'{key}="{val}"'
                             for key, val in sorted(labels.items()))
            label_text = "{" + inner + "}"
        number = float(value)
        rendered = repr(int(number)) if number == int(number) else repr(number)
        lines.append(f"{prefix}_{name}{label_text} {rendered}")
    return "\n".join(lines) + "\n"
