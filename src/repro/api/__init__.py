"""Public API of the verification pipeline.

The stable, documented facade for embedding the verifier: a
:class:`VerificationSession` context object owns every piece of
cross-cutting state (solver settings, certificate cache, solve/compile
counters, RNG seed, default relaxation, timing hooks), and
:func:`verify` runs a registered scenario under a session::

    from repro.api import VerificationSession, verify

    session = VerificationSession(cache_dir="~/.cache/my-verifier",
                                  relaxation="sdsos")
    report = verify("vanderpol", session=session)
    print(report.render_text(), session.solve_counters())

Sessions are isolated: two sessions in one process — different caches,
settings, relaxations — can verify concurrently from a thread pool without
sharing counters or cache entries.  Calls made without a session use the
process-default :class:`~repro.sdp.context.SolveContext`.

Re-exported building blocks: the :class:`~repro.sdp.context.SolveContext`
that a session wraps, the shared :class:`~repro.core.config.StageConfig`
stage-options base, and the scenario registry helpers.
"""

from ..core import InevitabilityOptions, StageConfig, VerificationReport
from ..sdp import (
    RELAXATIONS,
    SolveContext,
    default_context,
)
from ..scenarios import all_scenarios, build_problem, scenario_names
from .session import TimingHook, VerificationSession, verify

__all__ = [
    "VerificationSession",
    "verify",
    "TimingHook",
    "SolveContext",
    "default_context",
    "StageConfig",
    "InevitabilityOptions",
    "VerificationReport",
    "RELAXATIONS",
    "all_scenarios",
    "scenario_names",
    "build_problem",
]
