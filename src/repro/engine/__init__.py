"""Parallel verification engine with a persistent certificate cache.

``VerificationEngine`` expands registered scenarios into DAGs of jobs and
runs them inline or across a process pool; every conic solve is memoised in
a content-addressed on-disk ``CertificateCache``, so re-verifying an
unchanged scenario performs zero SDP solves.
"""

from .cache import (
    CACHE_DIR_ENV,
    CacheStats,
    CertificateCache,
    default_cache_dir,
)
from .engine import (
    EngineOptions,
    EngineReport,
    ScenarioOutcome,
    VerificationEngine,
)
from .jobs import (
    STEP_ADVECTION,
    STEP_FALSIFICATION,
    STEP_LEVELSET,
    STEP_LYAPUNOV,
    JobResult,
    JobSpec,
    JobStatus,
)
from .serialize import (
    certificates_from_data,
    certificates_to_data,
    polynomial_from_data,
    polynomial_to_data,
)

__all__ = [
    "VerificationEngine",
    "EngineOptions",
    "EngineReport",
    "ScenarioOutcome",
    "JobSpec",
    "JobResult",
    "JobStatus",
    "STEP_LYAPUNOV",
    "STEP_LEVELSET",
    "STEP_ADVECTION",
    "STEP_FALSIFICATION",
    "CertificateCache",
    "CacheStats",
    "default_cache_dir",
    "CACHE_DIR_ENV",
    "polynomial_to_data",
    "polynomial_from_data",
    "certificates_to_data",
    "certificates_from_data",
]
