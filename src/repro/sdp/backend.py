"""The dense and sparse factorisation kernels of the conic-solver hot loops.

Every stacked ``eigh`` of the PSD cone projection and every factorisation
of the x-update's m x m Schur matrix ``A A^T + rho*reg I`` (the Schur
complement of its KKT system) in the single and batched ADMM loops goes
through the one :data:`NUMPY_BACKEND` instance, so a profiler or a test can
observe exactly those calls by wrapping the two :class:`NumpyBackend`
methods.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["NumpyBackend", "NUMPY_BACKEND"]


class NumpyBackend:
    """LAPACK stacked ``eigh`` and SciPy SuperLU, the solvers' two kernels."""

    def eigh(self, matrices: np.ndarray):
        """Eigendecomposition of a stack of symmetric matrices."""
        return np.linalg.eigh(matrices)

    def kkt_factor(self, matrix: sp.spmatrix) -> spla.SuperLU:
        """LU-factorise the x-update's sparse Schur matrix; ``solve(rhs)`` on
        the result."""
        return spla.splu(matrix.tocsc())


#: The instance every solver loop calls through.
NUMPY_BACKEND = NumpyBackend()
