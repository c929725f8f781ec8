"""Verification reports: the per-step timing table (Table 2) and text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .properties import PropertyOneResult, PropertyTwoResult, VerificationStatus


def join_relaxations(relaxations: Iterable[Optional[str]]) -> Optional[str]:
    """Canonical relaxation column value: dedupe preserving first-seen order,
    join with commas, ``None`` when nothing was recorded."""
    seen: List[str] = []
    for relaxation in relaxations:
        if relaxation and relaxation not in seen:
            seen.append(relaxation)
    return ",".join(seen) if seen else None

#: Canonical step names, matching the rows of Table 2 of the paper.
STEP_ATTRACTIVE_INVARIANT = "Attractive Invariant"
STEP_MAX_LEVEL_CURVES = "Max. Level Curves"
STEP_ADVECTION = "Advection"
STEP_SET_INCLUSION = "Checking Set Inclusion"
STEP_ESCAPE = "Escape Certificate"
#: Simulation-based cross-check added by the verification engine (not a
#: Table 2 row of the paper; rendered after the canonical steps).
STEP_FALSIFICATION_CHECK = "Falsification Check"

TABLE2_STEP_ORDER = (
    STEP_ATTRACTIVE_INVARIANT,
    STEP_MAX_LEVEL_CURVES,
    STEP_ADVECTION,
    STEP_SET_INCLUSION,
    STEP_ESCAPE,
)


@dataclass
class StepTiming:
    """Wall-clock timing, detail string and relaxation of one verification step."""

    step: str
    seconds: float
    detail: str = ""
    #: Gram-cone relaxation that certified this step ("sos"/"chordal"),
    #: or ``None`` for steps without conic certificates (e.g. falsification).
    relaxation: Optional[str] = None


@dataclass
class VerificationReport:
    """Full record of one inevitability verification run."""

    system_name: str
    property_one: PropertyOneResult
    property_two: PropertyTwoResult
    timings: List[StepTiming] = field(default_factory=list)
    options_summary: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def inevitability_status(self) -> VerificationStatus:
        return self.property_one.status.combine(self.property_two.status)

    @property
    def inevitability_verified(self) -> bool:
        return self.inevitability_status.is_verified

    @property
    def total_time(self) -> float:
        return sum(t.seconds for t in self.timings)

    # ------------------------------------------------------------------
    def add_timing(self, step: str, seconds: float, detail: str = "",
                   relaxation: Optional[str] = None) -> None:
        self.timings.append(StepTiming(step=step, seconds=seconds,
                                       detail=detail, relaxation=relaxation))

    def timing_for(self, step: str) -> float:
        return sum(t.seconds for t in self.timings if t.step == step)

    def table2_rows(self) -> List[Tuple[str, float, str, Optional[str]]]:
        """Rows of the paper's Table 2: (step, seconds, detail, relaxation).

        Canonical steps come first in the paper's order; any other recorded
        step (e.g. the engine's falsification cross-check) follows in
        alphabetical order, so the row ordering is fully deterministic and no
        timing is silently dropped.  Skipped steps (no timing entries)
        produce no row.  The relaxation column joins the distinct
        relaxations recorded for the step's entries (``None`` when none was
        recorded).
        """
        rows: List[Tuple[str, float, str, Optional[str]]] = []
        extra_steps = sorted({t.step for t in self.timings
                              if t.step not in TABLE2_STEP_ORDER})
        for step in tuple(TABLE2_STEP_ORDER) + tuple(extra_steps):
            entries = [t for t in self.timings if t.step == step]
            if not entries:
                continue
            seconds = sum(t.seconds for t in entries)
            detail = "; ".join(t.detail for t in entries if t.detail)
            rows.append((step, seconds, detail,
                         join_relaxations(t.relaxation for t in entries)))
        return rows

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        lines = [f"Inevitability verification report for {self.system_name}",
                 "=" * 60]
        lines.append(f"Property 1 (attractivity in X1):      {self.property_one.status.value}")
        if self.property_one.invariant is not None:
            for mode_name, level, degree in self.property_one.invariant.summary_rows():
                lines.append(f"    {mode_name}: V degree {degree}, maximised level c = {level:.4g}")
        lines.append(f"Property 2 (bounded reachability):    {self.property_two.status.value}")
        for mode_name, result in sorted(self.property_two.per_mode.items()):
            parts = [f"    {mode_name}: {result.status.value}",
                     f"advection {result.iterations} iterations"
                     f"{' (absorbed)' if result.converged else ''}"]
            if result.escape_found:
                parts.append("escape certificate found")
            lines.append(", ".join(parts))
        lines.append(f"Inevitability (P = P1 and P2):        {self.inevitability_status.value}")
        lines.append("")
        rows = self.table2_rows()
        if rows:
            lines.append("Timing breakdown (Table 2 analogue):")
            for step, seconds, detail, relaxation in rows:
                suffix = f"  [{detail}]" if detail else ""
                if relaxation:
                    suffix = f"{suffix}  <{relaxation}>"
                lines.append(f"    {step:24s} {seconds:10.3f} s{suffix}")
            lines.append(f"    {'Total':24s} {self.total_time:10.3f} s")
        else:
            lines.append("Timing breakdown (Table 2 analogue): no steps executed")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """Plain-data form of the report (CLI ``--json`` / engine artifacts)."""
        per_mode = {}
        for mode_name, result in sorted(self.property_two.per_mode.items()):
            per_mode[mode_name] = {
                "status": result.status.value,
                "message": result.message,
                "advection_iterations": result.iterations,
                "advection_converged": result.converged,
                "escape": result.escape_found,
            }
        invariant_rows = []
        if self.property_one.invariant is not None:
            invariant_rows = [
                {"mode": mode_name, "level": level, "degree": degree}
                for mode_name, level, degree
                in self.property_one.invariant.summary_rows()
            ]
        return {
            "system": self.system_name,
            "property_one": {
                "status": self.property_one.status.value,
                "message": self.property_one.message,
                "invariant": invariant_rows,
            },
            "property_two": {
                "status": self.property_two.status.value,
                "message": self.property_two.message,
                "per_mode": per_mode,
            },
            "inevitability": self.inevitability_status.value,
            "timings": [
                {"step": step, "seconds": seconds, "detail": detail,
                 "relaxation": relaxation}
                for step, seconds, detail, relaxation in self.table2_rows()
            ],
            "total_seconds": self.total_time,
            "options": dict(self.options_summary),
        }

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render_text()
