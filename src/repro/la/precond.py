"""Preconditioners of the block solves that run without held LU factors.

The paper preconditions every block with Jacobi (Sec. III footnote).  Here
Jacobi serves the NS, VU and small-mesh PP solves that run without held
factors (:mod:`repro.la.factors`: a solver's first block, meshes past a
block's cap, a held-factor solve that fails).  On meshes past its measured
size crossover, :class:`repro.chns.pp_solver.PPSolver` uses
:func:`make_preconditioner` instead: one geometric-multigrid V-cycle on
``K_{1/rho}``, the exact pressure Schur complement of the projection step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .gmg import GeometricMultigrid


class JacobiPreconditioner:
    """Diagonal scaling.  Accepts a sparse matrix or a diagonal vector."""

    def __init__(self, A):
        if sp.issparse(A):
            d = A.diagonal()
        elif isinstance(A, np.ndarray) and A.ndim == 1:
            d = A
        else:
            raise TypeError("cannot extract a diagonal")
        d = np.where(np.abs(d) > 1e-300, d, 1.0)
        self.inv_diag = 1.0 / d

    def matvec(self, r: np.ndarray) -> np.ndarray:
        return self.inv_diag * r

    __call__ = matvec


#: Coarsest level of the V-cycle (one below the mesh's finest level when
#: that is coarser).
GMG_COARSEST_LEVEL = 2


def make_preconditioner(
    mesh, K: sp.spmatrix
) -> Callable[[np.ndarray], np.ndarray]:
    """One geometric-multigrid V-cycle on the pressure-Poisson operator
    ``K`` of ``mesh``.  ``K`` is singular with the constants as its
    nullspace, so both the residual handed to the cycle and the correction
    it returns are projected onto the mean-zero subspace, keeping CG in the
    range of ``K``.

    The prolongation chain lives in the mesh's ``memo``
    (:func:`repro.la.gmg.hierarchy_for`), so a rebuild for a new ``K`` on
    the same mesh (the density coefficient moves every step) pays only the
    Galerkin triple products.
    """
    finest = int(mesh.tree.levels.max())
    gmg = GeometricMultigrid(
        mesh, K.tocsr(), coarsest_level=min(GMG_COARSEST_LEVEL, finest - 1)
    )

    def v_cycle(r: np.ndarray) -> np.ndarray:
        z = gmg.v_cycle(r - r.mean())
        return z - z.mean()

    return v_cycle
