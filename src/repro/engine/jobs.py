"""Job containers of the verification engine.

A scenario expands into a small DAG of *steps* (Lyapunov search → per-mode
level-set maximisation → per-mode advection/inclusion → falsification
cross-check).  Each step becomes one :class:`JobSpec`; running it yields a
structured :class:`JobResult` whose payload is plain data (JSON-able), so
results cross process boundaries and land in reports unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Canonical step names.
STEP_LYAPUNOV = "lyapunov"
STEP_LEVELSET = "levelset"
STEP_ADVECTION = "advection"
STEP_FALSIFICATION = "falsification"
#: One batch of parameter-sweep probe points (see repro.sweep).  The sweep
#: planner's DAG (an anchor Lyapunov job, then one shard job per batch) runs
#: through the engine's job loop and the same hermetic worker entry point
#: as the classic pipeline steps.
STEP_SWEEP = "sweep_shard"


class JobStatus(enum.Enum):
    """Terminal state of one engine job."""

    OK = "ok"                    # step ran and produced its artifact
    FAILED = "failed"            # step ran; the verification claim failed
    ERROR = "error"              # step raised; detail carries the traceback
    TIMEOUT = "timeout"          # per-job wall-clock budget exceeded
    SKIPPED = "skipped"          # dependency failed or step not applicable

    @property
    def is_ok(self) -> bool:
        return self is JobStatus.OK


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of verification work.

    ``job_id`` is unique within an engine run (``<scenario>/<step>[:mode]``);
    ``depends_on`` lists job ids that must reach ``OK`` before this job's
    payload can be assembled.
    """

    job_id: str
    scenario: str
    step: str
    mode: Optional[str] = None
    depends_on: Tuple[str, ...] = ()

    @staticmethod
    def make_id(scenario: str, step: str, mode: Optional[str] = None) -> str:
        return f"{scenario}/{step}:{mode}" if mode else f"{scenario}/{step}"


@dataclass
class JobResult:
    """Structured outcome of one executed (or skipped) job."""

    job_id: str
    scenario: str
    step: str
    mode: Optional[str]
    status: JobStatus
    seconds: float = 0.0
    detail: str = ""
    data: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Gram-cone relaxation that certified this step ("sos" or
    #: "chordal"); ``None`` for steps without conic certificates.
    relaxation: Optional[str] = None

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "scenario": self.scenario,
            "step": self.step,
            "mode": self.mode,
            "status": self.status.value,
            "seconds": self.seconds,
            "detail": self.detail,
            "relaxation": self.relaxation,
            "counters": dict(self.counters),
            "cache_stats": dict(self.cache_stats),
        }
