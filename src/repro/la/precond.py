"""Preconditioners for the Krylov solvers.

Besides the algebraic smoothers (Jacobi/point-block Jacobi/SSOR) this
module carries :class:`PCDPreconditioner`, the physics-based
pressure-convection-diffusion block preconditioner the paper's future-work
section points at: one geometric-multigrid V-cycle on the *elliptic part*
of the operator.  For the pressure-Poisson solve the elliptic part IS the
operator (``K_{1/rho}`` is the exact pressure Schur complement of the
projection step), so PCD there is pure GMG with nullspace handling, and it
is what :class:`repro.chns.pp_solver.PPSolver` uses by itself on every mesh
past its measured size crossover (Jacobi below it); for the momentum
predictor the convection block is dropped under the usual PCD commutator
argument and the V-cycle runs on ``M_rho/dt + K_eta/(2 Re)``.

:func:`make_preconditioner` resolves a preconditioner name — the NS
``precond=`` config knob (scenario schema / ``NSSolver.solve``) or the
fixed ``"pcd"`` of the PP solve — to a concrete instance.
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


class BlockJacobiPreconditioner:
    """Point-block Jacobi for interleaved multi-DOF systems (BAIJ layout):
    inverts the ``ndof x ndof`` diagonal block of every node."""

    def __init__(self, A: sp.spmatrix, ndof: int):
        A = A.tocsr()
        n = A.shape[0]
        if n % ndof:
            raise ValueError("matrix size not a multiple of the block size")
        nb = n // ndof
        blocks = np.zeros((nb, ndof, ndof))
        for i in range(ndof):
            for j in range(ndof):
                idx = np.arange(nb) * ndof
                blocks[:, i, j] = np.asarray(
                    A[idx + i, idx + j]
                ).ravel()
        # Regularize empty blocks.
        sing = np.abs(np.linalg.det(blocks)) < 1e-300
        blocks[sing] += np.eye(ndof)
        self.inv_blocks = np.linalg.inv(blocks)
        self.ndof = ndof

    def matvec(self, r: np.ndarray) -> np.ndarray:
        nb = len(self.inv_blocks)
        rb = r.reshape(nb, self.ndof)
        return np.einsum("bij,bj->bi", self.inv_blocks, rb).ravel()

    __call__ = matvec


class SSORPreconditioner:
    """Symmetric SOR sweep (assembled CSR only)."""

    def __init__(self, A: sp.csr_matrix, omega: float = 1.0):
        A = A.tocsr()
        self.omega = omega
        self.L = sp.tril(A, k=-1).tocsr()
        self.U = sp.triu(A, k=1).tocsr()
        d = A.diagonal()
        self.D = np.where(np.abs(d) > 1e-300, d, 1.0)

    def matvec(self, r: np.ndarray) -> np.ndarray:
        from scipy.sparse.linalg import spsolve_triangular

        w = self.omega
        # (D/w + L) y = r ; then (D/w + U) z = D y / w
        M1 = (sp.diags(self.D / w) + self.L).tocsr()
        y = spsolve_triangular(M1, r, lower=True)
        M2 = (sp.diags(self.D / w) + self.U).tocsr()
        return spsolve_triangular(M2, (self.D / w) * y, lower=False)

    __call__ = matvec


class PCDPreconditioner:
    """Pressure-convection-diffusion block preconditioner.

    Applies one geometric-multigrid V-cycle on the elliptic (symmetric,
    convection-free) part of the operator.  The commutator argument behind
    PCD says the Schur complement of the momentum block is well approximated
    by its diffusive/reactive part, so a single V-cycle on that part is a
    spectrally-equivalent application of its inverse — the convection block
    only perturbs it at O(dt).

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
    elliptic: Optional[sp.spmatrix] = None,
    block_size: int = 1,
    remove_mean: bool = False,
):
    """Resolve a preconditioner name to an instance (or None).

    ``name``: ``"jacobi"`` | ``"block_jacobi"`` | ``"ssor"`` | ``"pcd"`` |
    ``"none"``/None.  PCD additionally needs ``mesh`` and, when the operator
    itself is not elliptic (the momentum predictor), its elliptic part via
    ``elliptic=``.
    """
    if name is None or name == "none":
        return None
    if name == "jacobi":
        return JacobiPreconditioner(A)
    if name == "block_jacobi":
        return BlockJacobiPreconditioner(A, block_size)
    if name == "ssor":
        return SSORPreconditioner(A)
    if name == "pcd":
        if mesh is None:
            raise ValueError("precond='pcd' needs the mesh for the GMG hierarchy")
        return PCDPreconditioner(
            mesh,
            elliptic if elliptic is not None else A,
            remove_mean=remove_mean,
        )
    raise ValueError(f"unknown preconditioner {name!r}")
