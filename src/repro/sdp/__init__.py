"""Conic semidefinite programming substrate (pure numpy/scipy).

Standard form: ``minimize c^T x  s.t.  A x = b,  x in K`` with
``K = R^free x R_+^nonneg x PSD blocks`` (svec coordinates).
"""

from .cones import (
    ConeDims,
    cone_violation,
    project_onto_cone,
    project_onto_cone_many,
    project_psd_svec,
    smat,
    svec,
    svec_dim,
    svec_indices,
)
from .chordal import chordal_decomposition, clique_tree
from .gramcone import (
    GRAM_CONES,
    RELAXATION_CONES,
    RELAXATIONS,
    ChordalGramBlock,
    GramBlockHandle,
    cone_for_relaxation,
    make_gram_block,
    normalize_gram_cone,
)
from .context import SolveContext, default_context
from .problem import ConicProblem, ConicProblemBuilder, VariableBlock
from .result import SolveHistory, SolverResult, SolverStatus
from .scaling import (ScalingData, column_inf_norms, drop_zero_rows,
                      equilibrate, presolve, row_inf_norms)
from .admm import ADMMConicSolver, ADMMSettings, WarmStart, unpack_warm_start
from .batch import BatchADMMSolver
from .ipm import farkas_margin
from .solver import (
    canonical_solver_options,
    solve_cache_key,
    solve_conic_problem,
    solve_conic_problems,
)

__all__ = [
    "ConeDims",
    "svec",
    "smat",
    "svec_dim",
    "svec_indices",
    "project_onto_cone",
    "project_onto_cone_many",
    "project_psd_svec",
    "cone_violation",
    "ConicProblem",
    "ConicProblemBuilder",
    "VariableBlock",
    "GRAM_CONES",
    "RELAXATIONS",
    "RELAXATION_CONES",
    "ChordalGramBlock",
    "chordal_decomposition",
    "clique_tree",
    "GramBlockHandle",
    "make_gram_block",
    "normalize_gram_cone",
    "cone_for_relaxation",
    "SolveContext",
    "default_context",
    "SolverResult",
    "SolverStatus",
    "SolveHistory",
    "ScalingData",
    "equilibrate",
    "drop_zero_rows",
    "presolve",
    "row_inf_norms",
    "column_inf_norms",
    "ADMMConicSolver",
    "ADMMSettings",
    "WarmStart",
    "unpack_warm_start",
    "BatchADMMSolver",
    "farkas_margin",
    "solve_conic_problem",
    "solve_conic_problems",
    "solve_cache_key",
    "canonical_solver_options",
]
