"""Parametric SOS programs: compile a θ-indexed family once, rebind cheaply.

The verification pipeline repeatedly solves SOS feasibility queries that
differ only in one scalar parameter — the candidate level ``θ`` of a
level-curve maximisation enters the Lemma-1 certificate affinely through
``λ·(V − θ)``.  Constructing and compiling a fresh :class:`SOSProgram` for
every bisection probe repeats identical structural work; the conic data is
really an affine family

    A(θ) = A0 + θ·A1,        b(θ) = b0 + θ·b1,

over a fixed cone and cost vector.  :class:`ParametricSOSProgram` recovers
``(A0, A1, b0, b1)`` from two structural compiles at distinct probe values
(verifying affinity at a third), aligns both matrices on the union
sparsity pattern, and thereafter :meth:`bind` assembles the problem for any
``θ`` with a single ``data0 + θ·data1`` array operation — no polynomial
arithmetic, no coefficient matching, no Gram-table work.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np
import scipy.sparse as sp

from ..sdp import ConicProblem, SolverResult
from .program import SOSProgram, SOSSolution

BuildResult = Union[SOSProgram, Tuple[SOSProgram, Any]]


class ParametricProgramError(RuntimeError):
    """Raised when a θ-family is structurally inconsistent or not affine."""


class ParametricSOSProgram:
    """A family of SOS programs ``θ -> program(θ)`` compiled once.

    ``build`` is a callable mapping a float ``θ`` to either an
    :class:`SOSProgram` or a ``(program, payload)`` pair; it must construct
    the *same structure* (same constraints, same templates, same ordering)
    for every ``θ``, with ``θ`` entering the conic data affinely.  The
    program built at ``probes[0]`` is kept as the canonical template for
    interpreting solver results (variable layout is identical across the
    family); its payload — e.g. a multiplier template — is exposed as
    :attr:`payload`.

    ``context`` is the :class:`~repro.sdp.context.SolveContext` applied to
    every program the family builds (unless the build callable already
    attached one), so the structural compiles are counted on the owning
    context rather than the process default.
    """

    def __init__(self, build: Callable[[float], BuildResult],
                 probes: Tuple[float, float] = (0.0, 1.0),
                 name: str = "parametric_sos",
                 context: Optional[object] = None):
        if float(probes[0]) == float(probes[1]):
            raise ValueError("probe values must be distinct")
        self.name = name
        self.context = context
        self._build = build
        self._probes = (float(probes[0]), float(probes[1]))
        self._compiled = False
        self._program: Optional[SOSProgram] = None
        self._payload: Any = None
        #: Number of full structural compiles performed (3: two probes and
        #: the affinity check) — bisection probes through :meth:`bind` add zero.
        self.num_structure_compiles = 0
        #: Number of :meth:`bind` calls served from the affine decomposition.
        self.num_binds = 0

    # ------------------------------------------------------------------
    @property
    def program(self) -> SOSProgram:
        """The canonical template program (built at the first probe)."""
        self.compile()
        assert self._program is not None
        return self._program

    @property
    def payload(self) -> Any:
        """Whatever the build callable returned alongside the canonical program."""
        self.compile()
        return self._payload

    @property
    def dims(self):
        """Cone dimensions of the bound problems (compiles if needed)."""
        self.compile()
        return self._dims

    # ------------------------------------------------------------------
    def _build_at(self, theta: float) -> Tuple[SOSProgram, Any, ConicProblem]:
        built = self._build(theta)
        if isinstance(built, tuple):
            program, payload = built
        else:
            program, payload = built, None
        if self.context is not None and program.context is None:
            program.context = self.context
        problem = program.compile()[0].build()
        self.num_structure_compiles += 1
        return program, payload, problem

    @staticmethod
    def _union_align(A_first: sp.csr_matrix, A_second: sp.csr_matrix,
                     shape: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray,
                                                      np.ndarray, np.ndarray]:
        """Expand two matrices onto their shared union sparsity pattern.

        Both outputs are built from the same concatenated COO index arrays,
        so after duplicate-summing they are guaranteed to share ``indptr``
        and ``indices`` (explicit zeros where only the other matrix has an
        entry are retained, not pruned).
        """
        coo_first = A_first.tocoo()
        coo_second = A_second.tocoo()
        rows = np.concatenate([coo_first.row, coo_second.row])
        cols = np.concatenate([coo_first.col, coo_second.col])
        data_first = np.concatenate([coo_first.data, np.zeros(coo_second.nnz)])
        data_second = np.concatenate([np.zeros(coo_first.nnz), coo_second.data])
        first = sp.csr_matrix((data_first, (rows, cols)), shape=shape)
        second = sp.csr_matrix((data_second, (rows, cols)), shape=shape)
        first.sum_duplicates()
        second.sum_duplicates()
        first.sort_indices()
        second.sort_indices()
        if not (np.array_equal(first.indptr, second.indptr)
                and np.array_equal(first.indices, second.indices)):
            raise ParametricProgramError("union sparsity alignment failed")
        return first.indptr, first.indices, first.data, second.data

    def compile(self) -> "ParametricSOSProgram":
        """Perform the structural compiles and the affine decomposition (once)."""
        if self._compiled:
            return self
        theta_a, theta_b = self._probes
        program_a, payload, problem_a = self._build_at(theta_a)
        _, _, problem_b = self._build_at(theta_b)

        if problem_a.dims != problem_b.dims or problem_a.A.shape != problem_b.A.shape \
                or problem_a.layout != problem_b.layout:
            raise ParametricProgramError(
                f"family {self.name!r} is not structurally stable across theta: "
                f"{problem_a.describe()} vs {problem_b.describe()}"
            )
        if not np.allclose(problem_a.c, problem_b.c):
            raise ParametricProgramError(
                f"family {self.name!r} has a theta-dependent cost vector; only "
                "affine constraint data is supported"
            )

        span = theta_b - theta_a
        A1 = ((problem_b.A - problem_a.A) * (1.0 / span)).tocsr()
        A0 = (problem_a.A - A1.multiply(theta_a)).tocsr()
        b1 = (problem_b.b - problem_a.b) / span
        b0 = problem_a.b - theta_a * b1

        self._shape = problem_a.A.shape
        self._indptr, self._indices, self._data0, self._data1 = \
            self._union_align(A0, A1, self._shape)
        self._b0, self._b1 = b0, b1
        self._c = problem_a.c
        self._dims = problem_a.dims
        self._layout = problem_a.layout
        self._program = program_a
        self._payload = payload
        self._compiled = True

        theta_c = theta_a + 0.5 * span
        _, _, problem_c = self._build_at(theta_c)
        bound = self.bind(theta_c)
        self.num_binds -= 1  # verification probe, not a user bind
        scale = 1.0 + float(np.abs(bound.A.data).max(initial=0.0))
        difference = abs(problem_c.A - bound.A)
        max_difference = float(difference.data.max(initial=0.0)) if difference.nnz else 0.0
        if max_difference > 1e-9 * scale or \
                not np.allclose(problem_c.b, bound.b, atol=1e-9 * scale):
            raise ParametricProgramError(
                f"family {self.name!r} is not affine in theta "
                f"(midpoint deviation {max_difference:.2e})"
            )
        return self

    # ------------------------------------------------------------------
    def bind(self, theta: float) -> ConicProblem:
        """Assemble the conic problem at ``theta`` — a pure array operation."""
        self.compile()
        theta = float(theta)
        data = self._data0 + theta * self._data1
        A = sp.csr_matrix((data, self._indices, self._indptr), shape=self._shape)
        self.num_binds += 1
        return ConicProblem(c=self._c, A=A, b=self._b0 + theta * self._b1,
                            dims=self._dims, layout=self._layout)

    def bind_many(self, thetas: Sequence[float]) -> List[ConicProblem]:
        """Assemble one problem per value — feed these to ``solve_conic_problems``."""
        return [self.bind(theta) for theta in thetas]

    # ------------------------------------------------------------------
    def interpret(self, result: SolverResult,
                  with_certificates: bool = False) -> SOSSolution:
        """Map a solver result of a bound problem back onto the template.

        The variable layout is identical across the family, so the canonical
        program's decision-variable extraction applies verbatim.  Gram
        certificates are skipped by default (the template's numeric data is
        the first probe's, not the bound ``theta``'s).
        """
        return self.program.interpret_result(result, with_certificates=with_certificates)


def _union_align_many(matrices: Sequence[sp.csr_matrix],
                      shape: Tuple[int, int]
                      ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Expand ``k`` matrices onto their shared union sparsity pattern.

    Generalises :meth:`ParametricSOSProgram._union_align` from two matrices
    to any number: every output data vector indexes the same concatenated
    COO pattern (explicit zeros retained where only the others have an
    entry), so affine combinations are plain ``np.ndarray`` arithmetic.
    """
    coos = [m.tocoo() for m in matrices]
    rows = np.concatenate([c.row for c in coos])
    cols = np.concatenate([c.col for c in coos])
    total = rows.shape[0]
    aligned: List[sp.csr_matrix] = []
    offset = 0
    for coo in coos:
        data = np.zeros(total)
        data[offset:offset + coo.nnz] = coo.data
        offset += coo.nnz
        matrix = sp.csr_matrix((data, (rows, cols)), shape=shape)
        matrix.sum_duplicates()
        matrix.sort_indices()
        aligned.append(matrix)
    indptr, indices = aligned[0].indptr, aligned[0].indices
    for matrix in aligned[1:]:
        if not (np.array_equal(indptr, matrix.indptr)
                and np.array_equal(indices, matrix.indices)):
            raise ParametricProgramError("union sparsity alignment failed")
    return indptr, indices, [m.data for m in aligned]


class MultiParametricSOSProgram:
    """A family of SOS programs over several named scalar axes, compiled once.

    The multi-axis generalisation of :class:`ParametricSOSProgram`: ``build``
    maps a full parameter dict ``{axis: value}`` to an :class:`SOSProgram`
    (or ``(program, payload)``) of identical structure, with every axis
    entering the conic data affinely and independently,

        A(p) = A0 + Σ_k t_k·ΔA_k,      t_k = (p_k − base_k)/step_k.

    The decomposition needs ``d+1`` structural compiles (base point plus one
    displaced point per axis); a final probe displaced along *all* axes at
    once verifies joint affinity — cross terms like ``p_1·p_2`` in the data
    make that probe deviate and raise :class:`ParametricProgramError`, which
    callers (the sweep planner) catch to fall back to per-point rebuilds.
    After :meth:`compile`, :meth:`bind` is a pure array operation.
    """

    def __init__(self, build: Callable[[Dict[str, float]], BuildResult],
                 base: Mapping[str, float],
                 steps: Optional[Mapping[str, float]] = None,
                 name: str = "multi_parametric_sos",
                 context: Optional[object] = None):
        self.axes: Tuple[str, ...] = tuple(sorted(base))
        if not self.axes:
            raise ValueError("at least one parameter axis is required")
        self.name = name
        self.context = context
        self._build = build
        self._base = {axis: float(base[axis]) for axis in self.axes}
        self._steps = {}
        for axis in self.axes:
            step = float((steps or {}).get(axis, 0.0))
            if step == 0.0:
                # A sensible displacement scale when the caller gave none:
                # the base magnitude (parameters are strictly positive in
                # the PLL models) or unity at a zero base.
                step = abs(self._base[axis]) or 1.0
            self._steps[axis] = step
        self._compiled = False
        self._program: Optional[SOSProgram] = None
        self._payload: Any = None
        #: Full structural compiles performed (``len(axes)+1``, plus one for
        #: the affinity probe) — every :meth:`bind` afterwards adds zero.
        self.num_structure_compiles = 0
        #: Number of :meth:`bind` calls served from the affine decomposition.
        self.num_binds = 0

    # ------------------------------------------------------------------
    @property
    def program(self) -> SOSProgram:
        """The canonical template program (built at the base point)."""
        self.compile()
        assert self._program is not None
        return self._program

    @property
    def payload(self) -> Any:
        self.compile()
        return self._payload

    def structural_points(self) -> List[Dict[str, float]]:
        """The points :meth:`compile` builds, in order: the base, the base
        displaced by one step along each axis, then the joint probe half a
        step along every axis."""
        points = [dict(self._base)]
        for axis in self.axes:
            point = dict(self._base)
            point[axis] += self._steps[axis]
            points.append(point)
        points.append({axis: self._base[axis] + 0.5 * self._steps[axis]
                       for axis in self.axes})
        return points

    def coordinates(self, params: Mapping[str, float]) -> np.ndarray:
        """``t_k = (p_k − base_k)/step_k`` of a parameter point, per axis."""
        return np.array([(float(params[axis]) - self._base[axis]) / self._steps[axis]
                         for axis in self.axes])

    def _build_at(self, point: Mapping[str, float]
                  ) -> Tuple[SOSProgram, Any, ConicProblem]:
        built = self._build(dict(point))
        if isinstance(built, tuple):
            program, payload = built
        else:
            program, payload = built, None
        if self.context is not None and program.context is None:
            program.context = self.context
        problem = program.compile()[0].build()
        self.num_structure_compiles += 1
        return program, payload, problem

    def compile(self) -> "MultiParametricSOSProgram":
        """Perform the structural compiles and the affine decomposition (once)."""
        if self._compiled:
            return self
        base, *axis_points, probe = self.structural_points()
        program0, payload, problem0 = self._build_at(base)
        displaced: List[ConicProblem] = []
        for axis, point in zip(self.axes, axis_points):
            _, _, problem_k = self._build_at(point)
            if problem_k.dims != problem0.dims \
                    or problem_k.A.shape != problem0.A.shape \
                    or problem_k.layout != problem0.layout:
                raise ParametricProgramError(
                    f"family {self.name!r} is not structurally stable along "
                    f"axis {axis!r}: {problem0.describe()} vs {problem_k.describe()}")
            if not np.allclose(problem_k.c, problem0.c):
                raise ParametricProgramError(
                    f"family {self.name!r} has a parameter-dependent cost "
                    f"vector along axis {axis!r}; only affine constraint "
                    "data is supported")
            displaced.append(problem_k)

        indptr, indices, datas = _union_align_many(
            [problem0.A] + [p.A for p in displaced], problem0.A.shape)
        self._shape = problem0.A.shape
        self._indptr, self._indices = indptr, indices
        self._data0 = datas[0]
        self._data_slopes = [datas[k + 1] - datas[0]
                             for k in range(len(self.axes))]
        self._b0 = problem0.b
        self._b_slopes = [p.b - problem0.b for p in displaced]
        self._c = problem0.c
        self._dims = problem0.dims
        self._layout = problem0.layout
        self._program = program0
        self._payload = payload
        self._compiled = True

        _, _, problem_p = self._build_at(probe)
        bound = self.bind(probe)
        self.num_binds -= 1  # verification probe, not a user bind
        scale = 1.0 + float(np.abs(bound.A.data).max(initial=0.0))
        difference = abs(problem_p.A - bound.A)
        max_difference = float(difference.data.max(initial=0.0)) if difference.nnz else 0.0
        if max_difference > 1e-9 * scale or \
                not np.allclose(problem_p.b, bound.b, atol=1e-9 * scale):
            raise ParametricProgramError(
                f"family {self.name!r} is not jointly affine in "
                f"{list(self.axes)} (probe deviation {max_difference:.2e})")
        return self

    # ------------------------------------------------------------------
    def bind(self, params: Mapping[str, float]) -> ConicProblem:
        """Assemble the conic problem at a parameter point — pure array work."""
        self.compile()
        data = self._data0.copy()
        b = self._b0.copy()
        for k, t in enumerate(self.coordinates(params)):
            if t != 0.0:
                data += t * self._data_slopes[k]
                b += t * self._b_slopes[k]
        A = sp.csr_matrix((data, self._indices, self._indptr), shape=self._shape)
        self.num_binds += 1
        return ConicProblem(c=self._c, A=A, b=b, dims=self._dims,
                            layout=self._layout)

    def interpret(self, result: SolverResult,
                  with_certificates: bool = False) -> SOSSolution:
        """Map a bound problem's solver result back onto the template program."""
        return self.program.interpret_result(result, with_certificates=with_certificates)
