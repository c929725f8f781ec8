"""Sum-of-Squares programming layer (the role of YALMIP's SOS module in the paper)."""

from .program import (
    EqualityConstraint,
    ScalarConstraint,
    SOSCertificate,
    SOSConstraint,
    SOSProgram,
    SOSProgramError,
    SOSSolution,
    compile_counters,
)
from .parametric import (MultiParametricSOSProgram, ParametricProgramError,
                         ParametricSOSProgram)
from .sprocedure import (
    SemialgebraicSet,
    SProcedureCertificate,
    add_nonnegativity_on_set,
    add_positivity_on_set,
    ball_constraint,
    interval_constraints,
)
from .validation import (
    DecreaseSamples,
    DecreaseSamplingPlan,
    ValidationReport,
    minimum_on_level_set,
    sample_box,
    sample_set,
    validate_decrease_along_field,
    validate_nonnegativity,
)

__all__ = [
    "SOSProgram",
    "SOSProgramError",
    "SOSSolution",
    "ParametricSOSProgram",
    "MultiParametricSOSProgram",
    "ParametricProgramError",
    "compile_counters",
    "SOSConstraint",
    "SOSCertificate",
    "EqualityConstraint",
    "ScalarConstraint",
    "SemialgebraicSet",
    "SProcedureCertificate",
    "add_positivity_on_set",
    "add_nonnegativity_on_set",
    "interval_constraints",
    "ball_constraint",
    "ValidationReport",
    "DecreaseSamples",
    "DecreaseSamplingPlan",
    "validate_nonnegativity",
    "validate_decrease_along_field",
    "minimum_on_level_set",
    "sample_box",
    "sample_set",
]
