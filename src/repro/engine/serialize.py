"""Plain-data serialisation of certificate artifacts and the wire schema.

Engine jobs run in separate worker processes; the artifacts that cross the
process boundary (Lyapunov certificates, maximised levels) and the artifacts
persisted in JSON reports are encoded as plain dicts/lists so they pickle
cheaply, diff cleanly and survive round-trips independent of object identity.
Terms are sorted by monomial order, making the encoding deterministic.

The ``*_to_wire``/``*_from_wire`` codecs additionally stamp (and require) a
``"schema"`` version tag: they are the only encoding that fleet nodes accept
over the network (see :mod:`repro.fleet.protocol` — JSON frames, never
pickle), so an incompatible peer fails with a clear
:class:`WireSchemaError` instead of a ``KeyError`` deep inside a handler.
NumPy arrays are carried as tagged ``{"__ndarray__": ...}`` documents;
float64 values survive JSON exactly (shortest-repr round-trip).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Tuple

import numpy as np

from ..polynomial import Monomial, Polynomial, VariableVector, make_variables
from ..sdp.result import SolveHistory, SolverResult, SolverStatus
from .jobs import JobResult, JobSpec, JobStatus

#: Version tag of every wire document produced by this module.
SCHEMA_VERSION = 1


class WireSchemaError(ValueError):
    """A wire document carries an unknown or missing schema version."""


def _require_schema(data: Dict[str, object], kind: str) -> None:
    if not isinstance(data, dict):
        raise WireSchemaError(f"{kind} wire document must be a JSON object, "
                              f"got {type(data).__name__}")
    version = data.get("schema")
    if version != SCHEMA_VERSION:
        raise WireSchemaError(
            f"unsupported {kind} schema version {version!r}; this build "
            f"reads version {SCHEMA_VERSION} — upgrade the older fleet node")


def polynomial_to_data(poly: Polynomial) -> Dict[str, object]:
    """Encode a numeric polynomial as ``{"variables": [...], "terms": [...]}``."""
    terms = sorted(poly.coefficients.items(), key=lambda item: Monomial.sort_key(item[0]))
    return {
        "variables": list(poly.variables.names),
        "terms": [[list(mono.exponents), float(coeff)] for mono, coeff in terms],
    }


def polynomial_from_data(data: Dict[str, object]) -> Polynomial:
    """Inverse of :func:`polynomial_to_data`."""
    variables = VariableVector(make_variables(*data["variables"]))
    coefficients = {tuple(int(e) for e in exponents): float(coeff)
                    for exponents, coeff in data["terms"]}
    return Polynomial(variables, coefficients)


def certificates_to_data(certificates: Dict[str, Polynomial]) -> Dict[str, object]:
    """Encode a per-mode certificate dictionary (sorted by mode name)."""
    return {name: polynomial_to_data(certificates[name])
            for name in sorted(certificates)}


def certificates_from_data(data: Dict[str, object]) -> Dict[str, Polynomial]:
    return {name: polynomial_from_data(entry) for name, entry in data.items()}


def levels_to_data(levels: Dict[str, Tuple[float, int]]) -> Dict[str, object]:
    return {name: {"level": float(level), "iterations": int(iterations)}
            for name, (level, iterations) in sorted(levels.items())}


# ----------------------------------------------------------------------
# JSON-safe value encoding (NumPy arrays and scalars)
# ----------------------------------------------------------------------
def to_jsonable(value: object, strict: bool = True) -> object:
    """Recursively encode a value so ``json.dumps`` accepts it.

    NumPy arrays become tagged ``{"__ndarray__": {dtype, shape, data}}``
    documents, solver :class:`~repro.sdp.result.SolveHistory` diagnostics
    become tagged ``{"__solve_history__": ...}`` documents, and NumPy
    scalars collapse to their Python equivalents.  Already plain values pass
    through unchanged.

    With ``strict=False`` any *other* object is replaced by a tagged
    ``{"__opaque__": repr}`` marker instead of poisoning ``json.dumps``
    downstream — the mode used for solver ``info`` dicts, where third-party
    backends may attach arbitrary diagnostics and the remote cache must
    degrade rather than fail the job.
    """
    if isinstance(value, np.ndarray):
        return {"__ndarray__": {"dtype": str(value.dtype),
                                "shape": list(value.shape),
                                "data": value.ravel().tolist()}}
    if isinstance(value, SolveHistory):
        return {"__solve_history__": {"primal": list(value.primal),
                                      "dual": list(value.dual),
                                      "objective": list(value.objective)}}
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(entry, strict)
                for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(entry, strict) for entry in value]
    if strict or value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"__opaque__": repr(value)}


def from_jsonable(value: object) -> object:
    """Inverse of :func:`to_jsonable` (tagged documents back to objects).

    ``__opaque__`` markers decode to ``None``: the original object never
    crossed the wire, and every consumer of solver ``info`` treats a missing
    entry as "no diagnostics".
    """
    if isinstance(value, dict):
        if set(value) == {"__ndarray__"}:
            spec = value["__ndarray__"]
            array = np.array(spec["data"], dtype=np.dtype(spec["dtype"]))
            return array.reshape([int(n) for n in spec["shape"]])
        if set(value) == {"__solve_history__"}:
            spec = value["__solve_history__"]
            return SolveHistory(primal=[float(v) for v in spec["primal"]],
                                dual=[float(v) for v in spec["dual"]],
                                objective=[float(v) for v in spec["objective"]])
        if set(value) == {"__opaque__"}:
            return None
        return {key: from_jsonable(entry) for key, entry in value.items()}
    if isinstance(value, list):
        return [from_jsonable(entry) for entry in value]
    return value


# ----------------------------------------------------------------------
# Wire codecs (schema-tagged; the only encodings fleet nodes exchange)
# ----------------------------------------------------------------------
def job_spec_to_wire(spec: JobSpec) -> Dict[str, object]:
    return {
        "schema": SCHEMA_VERSION,
        "job_id": spec.job_id,
        "scenario": spec.scenario,
        "step": spec.step,
        "mode": spec.mode,
        "depends_on": list(spec.depends_on),
    }


def job_spec_from_wire(data: Dict[str, object]) -> JobSpec:
    _require_schema(data, "JobSpec")
    return JobSpec(
        job_id=str(data["job_id"]),
        scenario=str(data["scenario"]),
        step=str(data["step"]),
        mode=None if data.get("mode") is None else str(data["mode"]),
        depends_on=tuple(str(dep) for dep in data.get("depends_on", [])),
    )


def job_result_to_wire(result: JobResult) -> Dict[str, object]:
    return {
        "schema": SCHEMA_VERSION,
        "job_id": result.job_id,
        "scenario": result.scenario,
        "step": result.step,
        "mode": result.mode,
        "status": result.status.value,
        "seconds": float(result.seconds),
        "detail": result.detail,
        "relaxation": result.relaxation,
        "data": to_jsonable(result.data),
        "counters": {str(k): int(v) for k, v in result.counters.items()},
        "cache_stats": {str(k): int(v) for k, v in result.cache_stats.items()},
    }


def job_result_from_wire(data: Dict[str, object]) -> JobResult:
    _require_schema(data, "JobResult")
    return JobResult(
        job_id=str(data["job_id"]),
        scenario=str(data["scenario"]),
        step=str(data["step"]),
        mode=None if data.get("mode") is None else str(data["mode"]),
        status=JobStatus(data["status"]),
        seconds=float(data.get("seconds", 0.0)),
        detail=str(data.get("detail", "")),
        relaxation=(None if data.get("relaxation") is None
                    else str(data["relaxation"])),
        data=from_jsonable(data.get("data", {})),
        counters={str(k): int(v)
                  for k, v in dict(data.get("counters", {})).items()},
        cache_stats={str(k): int(v)
                     for k, v in dict(data.get("cache_stats", {})).items()},
    )


def solver_result_to_wire(result: SolverResult) -> Dict[str, object]:
    """Encode a conic :class:`SolverResult` for the remote-cache protocol."""
    return {
        "schema": SCHEMA_VERSION,
        "status": result.status.value,
        "x": to_jsonable(result.x) if result.x is not None else None,
        "objective": float(result.objective),
        "primal_residual": float(result.primal_residual),
        "dual_residual": float(result.dual_residual),
        "equality_residual": float(result.equality_residual),
        "cone_violation": float(result.cone_violation),
        "iterations": int(result.iterations),
        "solve_time": float(result.solve_time),
        "info": to_jsonable(result.info, strict=False),
    }


def solver_result_from_wire(data: Dict[str, object]) -> SolverResult:
    _require_schema(data, "SolverResult")
    x = data.get("x")
    decoded = from_jsonable(x) if x is not None else None
    if decoded is not None and not isinstance(decoded, np.ndarray):
        decoded = np.asarray(decoded, dtype=float)
    return SolverResult(
        status=SolverStatus(data["status"]),
        x=decoded,
        objective=float(data.get("objective", float("nan"))),
        primal_residual=float(data.get("primal_residual", float("nan"))),
        dual_residual=float(data.get("dual_residual", float("nan"))),
        equality_residual=float(data.get("equality_residual", float("nan"))),
        cone_violation=float(data.get("cone_violation", float("nan"))),
        iterations=int(data.get("iterations", 0)),
        solve_time=float(data.get("solve_time", 0.0)),
        info=from_jsonable(data.get("info", {})),
    )


#: Payload keys that define a job's *mathematical* identity.  Transport
#: details (cache directory, cache on/off) are deliberately excluded: the
#: same job submitted against any cache configuration computes the same
#: certificates, which is what makes the master's job memo sound.
_FINGERPRINT_FIELDS = ("scenario", "step", "mode", "seed", "relaxation",
                       "backend", "certificate",
                       "certificates", "levels")


def payload_fingerprint(payload: Dict[str, object]) -> str:
    """Content address of one engine job payload (cache-aware scheduling).

    The sha256 of the canonical JSON of the payload's semantic fields plus
    the schema version, so a master can answer a previously-completed job
    from its memo without dispatching it to any worker.
    """
    semantic = {key: payload.get(key) for key in _FINGERPRINT_FIELDS
                if payload.get(key) is not None}
    semantic["schema"] = SCHEMA_VERSION
    text = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def memo_outcome(stored: Dict[str, object]) -> Dict[str, object]:
    """Rewrite a memoised job outcome as a warm-cache replay.

    A job answered from the master's memo performed **zero** solves; its
    counters must say exactly what a re-dispatched warm-cache execution
    would have said: every solve the original run performed (or itself
    replayed) becomes a cache hit and the cache stats record pure hits.
    Status, detail, artifact data and relaxation are replayed verbatim.
    """
    counters: Dict[str, int] = {"solved": 0, "cache_hit": 0}
    for key, value in dict(stored.get("counters", {})).items():
        event, _, suffix = key.partition(":")
        if event not in ("solved", "cache_hit"):
            continue
        target = "cache_hit" + (f":{suffix}" if suffix else "")
        counters[target] = counters.get(target, 0) + int(value)
    stats = dict(stored.get("cache_stats", {}))
    lookups = int(stats.get("hits", 0)) + int(stats.get("misses", 0))
    outcome = dict(stored)
    outcome["counters"] = counters
    outcome["cache_stats"] = ({"hits": lookups, "misses": 0, "writes": 0,
                               "corrupted": 0} if stats else {})
    outcome["seconds"] = 0.0
    return outcome


def memoizable_status(status: Optional[str]) -> bool:
    """Only deterministic mathematical outcomes enter the job memo.

    Infrastructure verdicts (errors, timeouts, skips) must retry on the next
    submission rather than being replayed forever.
    """
    return status in ("ok", "failed")
