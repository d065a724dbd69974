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

import numpy as np

from ..mesh.mesh import Mesh


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

