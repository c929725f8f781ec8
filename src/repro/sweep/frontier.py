"""Feasibility-frontier aggregation over sweep outcomes.

Folds per-point recertification outcomes into the report the sweep exists
to produce: which parameter regions certify, and where the certified
region's boundary sits on every axis.

The frontier section is a pure function of the family configuration and the
per-point outcomes — both deterministic — so its JSON serialisation is
bit-identical across process counts, shard boundaries and resumed runs.
Nondeterministic run telemetry (wall times, cache stats, compile counters)
lives in the report's separate ``run`` section.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def build_frontier(family_config: Dict[str, object],
                   fingerprint: str,
                   relaxation: str,
                   outcomes: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The deterministic frontier section of a sweep report.

    ``relaxation`` is the Gram-cone relaxation every probe ran under (the
    scenario's registered one).  ``outcomes`` are the per-point dicts
    produced by the probe shards (``index``/``params``/``certified``/
    ``sampling``, plus the ``probe`` of every point sampling did not
    reject), in any order; the frontier re-sorts by index.
    """
    points = sorted((dict(outcome) for outcome in outcomes),
                    key=lambda o: int(o["index"]))
    certified = sum(1 for outcome in points if outcome.get("certified"))

    axes: Dict[str, Dict[str, object]] = {}
    axis_names = sorted({name for outcome in points
                         for name in outcome.get("params", {})})
    for axis in axis_names:
        bins: Dict[float, Dict[str, int]] = {}
        for outcome in points:
            params = outcome.get("params", {})
            if axis not in params:
                continue
            value = float(params[axis])
            entry = bins.setdefault(value, {"certified": 0, "total": 0})
            entry["total"] += 1
            if outcome.get("certified"):
                entry["certified"] += 1
        ordered = [{"value": value,
                    "certified": bins[value]["certified"],
                    "total": bins[value]["total"]}
                   for value in sorted(bins)]
        certified_values = [row["value"] for row in ordered if row["certified"]]
        axes[axis] = {
            "bins": ordered,
            "certified_range": ([min(certified_values), max(certified_values)]
                                if certified_values else None),
        }

    return {
        "schema": 2,
        "family": dict(family_config),
        "fingerprint": fingerprint,
        "relaxation": relaxation,
        "summary": {
            "points": len(points),
            "certified": certified,
            "uncertified": len(points) - certified,
        },
        "axes": axes,
        "points": points,
    }


def render_frontier_text(frontier: Dict[str, object]) -> str:
    """Human-readable rendering of a frontier section."""
    family = frontier.get("family", {})
    summary = frontier.get("summary", {})
    lines: List[str] = [
        f"Sweep frontier: {family.get('name', '?')} "
        f"(scenario {family.get('scenario', '?')}, "
        f"{summary.get('points', 0)} point(s))",
        f"  certified: {summary.get('certified', 0)}"
        f"/{summary.get('points', 0)} "
        f"(relaxation {frontier.get('relaxation', '?')})",
    ]
    for axis, entry in sorted(frontier.get("axes", {}).items()):
        span = entry.get("certified_range")
        span_text = (f"certified in [{span[0]:.6g}, {span[1]:.6g}]"
                     if span else "no certified values")
        lines.append(f"  axis {axis}: {span_text}")
        cells = []
        for row in entry.get("bins", []):
            mark = "#" if row["certified"] == row["total"] else \
                ("+" if row["certified"] else ".")
            cells.append(f"{row['value']:.4g}{mark}")
        lines.append("    " + " ".join(cells)
                     + "   (#=all certified, +=partial, .=none)")
    return "\n".join(lines)
