"""Matrix-free MATVEC over octree elements.

The paper's erosion/dilation identifiers and its scaling study (Fig. 4) are
built on this kernel: one pass over local elements with gather (GhostRead) /
scatter (GhostWrite), no assembled global matrix.  Here the gather/scatter
run through the hanging-node interpolation ``P``, so the kernel is exact on
adaptive meshes.  :func:`elemental_pass` is the one gather / batched GEMV /
scatter-add pass; :class:`repro.mesh.distributed.DistributedField` runs the
same function over its local element chunk.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..mesh.mesh import Mesh
from .plan import get_plan


def elemental_pass(
    Ke: np.ndarray, conn: np.ndarray, nv: np.ndarray
) -> np.ndarray:
    """Gather ``nv`` through the connectivity ``conn`` (n_elems, nc), apply
    the elemental matrices ``Ke`` (n_elems, nc, nc) as one batched GEMV, and
    scatter-add the results back (element-major, corner-minor order)."""
    ve = np.einsum("eij,ej->ei", Ke, nv[conn])
    acc = np.zeros(len(nv))
    np.add.at(acc, conn.ravel(), ve.ravel())
    return acc


def apply_elemental(mesh: Mesh, Ke: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``v = A u`` with ``A = Σ_e P_e^T K_e P_e`` applied matrix-free.

    ``Ke`` is the batch of elemental matrices (n_elems, nc, nc).
    """
    nodes = mesh.nodes
    return nodes.accumulate(
        elemental_pass(Ke, nodes.elem_nodes, nodes.node_values(u))
    )


class MatrixFreeOperator:
    """Callable operator wrapping a batch of elemental matrices, with
    optional Dirichlet constraints (constrained DOFs act as identity)."""

    def __init__(
        self,
        mesh: Mesh,
        Ke: np.ndarray,
        dirichlet_mask: Optional[np.ndarray] = None,
    ):
        self.mesh = mesh
        self.Ke = Ke
        self.mask = dirichlet_mask
        self.shape = (mesh.n_dofs, mesh.n_dofs)
        self.dtype = np.float64

    def matvec(self, u: np.ndarray) -> np.ndarray:
        if self.mask is None:
            return apply_elemental(self.mesh, self.Ke, u)
        uu = u.copy()
        uu[self.mask] = 0.0
        v = apply_elemental(self.mesh, self.Ke, uu)
        v[self.mask] = u[self.mask]
        return v

    __call__ = matvec

    def diagonal(self) -> np.ndarray:
        """Assembled diagonal (for Jacobi preconditioning) — bitwise equal
        to ``plan.assemble(Ke).diagonal()`` via the plan's diagonal
        sub-plan, hence exact on hanging-node meshes (the historical
        per-element ``Ke[:, i, i]`` scatter was only approximate there)."""
        d = get_plan(self.mesh).diagonal(self.Ke)
        if self.mask is not None:
            d[self.mask] = 1.0
        # Zero diagonal entries can appear only on degenerate meshes; keep
        # them invertible for Jacobi.
        d[d == 0.0] = 1.0
        return d
