"""Shared configuration base of the verification pipeline stages.

Every SOS pipeline stage — Lyapunov synthesis, level-curve maximisation,
bounded advection, escape-certificate search — historically carried its own
near-duplicate copy of the same three knobs (S-procedure multiplier degree,
solver settings, Gram-cone relaxation).  :class:`StageConfig`
is the single definition; the per-stage Options dataclasses inherit from it
and add only their stage-specific fields.

These are *data* objects: the live solver state (cache, counters) lives on
a :class:`~repro.sdp.context.SolveContext`, which is threaded through the
stage classes separately.  A stage's ``solver_settings`` are the settings of
that stage's solves; the context carries none of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class StageConfig:
    """Knobs shared by every SOS pipeline stage.

    Attributes
    ----------
    multiplier_degree:
        Degree of the S-procedure / Lemma-1 multiplier polynomials.
    solver_settings:
        Keyword settings forwarded to :class:`~repro.sdp.admm.ADMMSettings`.
    relaxation:
        Gram-cone relaxation of the stage's SOS certificates: ``"sos"``
        (full PSD Gram, the default) or ``"chordal"`` (clique-sized PSD
        blocks from a chordal extension of the Gram sparsity pattern —
        exact when the pattern is genuinely sparse).  Each stage solves its
        programs once, under this one cone.
    """

    multiplier_degree: int = 2
    solver_settings: Dict[str, object] = field(default_factory=dict)
    relaxation: str = "sos"
