"""Thresholding of the phase field on octree meshes (paper Eq. 4).

The octree variant maps to ±1 rather than 1/0: "purely a mathematical
convenience in detecting the interface elements" — an element then contains
interface iff the nodal sum's magnitude differs from the node count
(paper Eq. 5), which remains valid when hanging nodes interpolate values
strictly between the binary limits.
"""

from __future__ import annotations

import numpy as np

from ..mesh.mesh import Mesh


def threshold_octree(phi: np.ndarray, delta: float = 0.8) -> np.ndarray:
    """``phi_BW,o``: +1 where phi <= delta (immersed phase), else -1."""
    return np.where(np.asarray(phi) <= delta, 1.0, -1.0)


def interface_elements(mesh: Mesh, bw: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Mask of elements containing interface: ``|Σ_nodes phi_BW,o| != nodes``
    (paper Eq. 5).  Hanging corners carry interpolated (fractional) values,
    which correctly flag their elements too."""
    return interface_of_nodal(mesh.node_values(bw), mesh.nodes.elem_nodes, tol)


def interface_of_nodal(
    nodal: np.ndarray, elem_nodes: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """:func:`interface_elements` from all-node values ``P @ bw`` a caller
    already holds, so a sweep reads its nodes once."""
    ev = nodal.take(elem_nodes, axis=0)  # (n_elems, nc)
    nc = ev.shape[1]
    return np.abs(np.abs(ev.sum(axis=1)) - nc) > tol
