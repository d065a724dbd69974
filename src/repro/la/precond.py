"""Preconditioners for the Krylov solvers.

Jacobi is what every block solve of the CHNS step uses (the paper's choice,
Sec. III footnote).  :class:`PCDPreconditioner` is one geometric-multigrid
V-cycle on an elliptic operator with nullspace handling: for the
pressure-Poisson solve ``K_{1/rho}`` is the exact pressure Schur complement
of the projection step, and :class:`repro.chns.pp_solver.PPSolver` applies
it by itself on every mesh past its measured size crossover (Jacobi below
it).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp


class JacobiPreconditioner:
    """Diagonal scaling.  Accepts a CSR matrix, a diagonal vector, or any
    operator exposing ``diagonal()`` (e.g. the matrix-free elemental
    operator)."""

    def __init__(self, A):
        if sp.issparse(A):
            d = A.diagonal()
        elif isinstance(A, np.ndarray) and A.ndim == 1:
            d = A
        elif hasattr(A, "diagonal"):
            d = np.asarray(A.diagonal())
        else:
            raise TypeError("cannot extract a diagonal")
        d = np.where(np.abs(d) > 1e-300, d, 1.0)
        self.inv_diag = 1.0 / d

    def matvec(self, r: np.ndarray) -> np.ndarray:
        return self.inv_diag * r

    __call__ = matvec


class PCDPreconditioner:
    """One geometric-multigrid V-cycle on an elliptic (symmetric) operator.

    ``remove_mean`` handles the pure-Neumann pressure-Poisson nullspace:
    both the residual handed to the cycle and the returned correction are
    projected onto the mean-zero subspace, keeping the Krylov iteration in
    the range of the singular operator.

    The prolongation chain is cached per ``Mesh.generation`` inside
    :mod:`repro.la.gmg`, so per-timestep rebuilds (the density coefficient
    moves every step) pay only the Galerkin triple products.
    """

    def __init__(
        self,
        mesh,
        A_elliptic: sp.spmatrix,
        *,
        remove_mean: bool = False,
        coarsest_level: int = 2,
    ):
        from .gmg import GeometricMultigrid

        finest = int(mesh.tree.levels.max())
        coarsest_level = min(int(coarsest_level), finest - 1)
        self._gmg = GeometricMultigrid(
            mesh, A_elliptic.tocsr(), coarsest_level=coarsest_level
        )
        self.remove_mean = remove_mean

    def matvec(self, r: np.ndarray) -> np.ndarray:
        if self.remove_mean:
            r = r - r.mean()
        z = self._gmg.v_cycle(r)
        if self.remove_mean:
            z = z - z.mean()
        return z

    __call__ = matvec


def make_preconditioner(
    name: Optional[str],
    A: sp.spmatrix,
    *,
    mesh=None,
    remove_mean: bool = False,
):
    """Resolve a preconditioner name to an instance (or None).

    ``name``: ``"jacobi"`` | ``"pcd"`` | ``"none"``/None.  PCD runs its
    V-cycle on ``A`` itself and needs ``mesh`` for the hierarchy.
    """
    if name is None or name == "none":
        return None
    if name == "jacobi":
        return JacobiPreconditioner(A)
    if name == "pcd":
        if mesh is None:
            raise ValueError("precond='pcd' needs the mesh for the GMG hierarchy")
        return PCDPreconditioner(mesh, A, remove_mean=remove_mean)
    raise ValueError(f"unknown preconditioner {name!r}")
