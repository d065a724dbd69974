"""Elemental local-Cahn marking (paper Algorithm 3 / Eq. 6) and the
island-removal / padding pass on the marked elements (Algorithm 4).

Both work on boolean element masks: ``True`` marks an element that gets the
reduced Cahn number.  The Cn values themselves are attached once, by
:func:`repro.core.identifier.identify_local_cahn`.

Detection rule (Eq. 6): an element is marked when all its nodes are +1
under thresholding (inside the immersed phase) and all its nodes are -1
after the extra dilation — i.e. the feature it belongs to eroded away and
never grew back: a droplet or filament thinner than the morphological
radius.

Note on labels: the paper's Algorithm 3 listing assigns ``Cn_2`` (with
``Cn_1 < Cn_2``) to detected elements while the surrounding text reduces Cn
there; we follow the text (and physics): detected elements get ``cn_fine``,
the smaller value.
"""

from __future__ import annotations

import numpy as np

from ..mesh.mesh import Mesh
from .erode_dilate import Stage, erode_dilate


def elemental_cahn(
    mesh: Mesh, bw_o: np.ndarray, bw_d: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Mask of reduced-Cn elements from the thresholded (``bw_o``) and
    extra-dilated (``bw_d``) nodal vectors."""
    eo = mesh.elem_gather(bw_o).sum(axis=1)
    ed = mesh.elem_gather(bw_d).sum(axis=1)
    nc = 1 << mesh.dim
    return (np.abs(eo - nc) <= tol) & (np.abs(ed + nc) <= tol)


def erode_dilate_cahn(
    mesh: Mesh,
    detected: np.ndarray,
    base_level: int,
    *,
    n_erode: int = 1,
    n_dilate: int = 3,
) -> np.ndarray:
    """Algorithm 4: remove tiny islands of reduced Cn, then pad the kept
    regions so they keep covering the feature until the next identification.

    The element mask is lifted to a nodal ±1 vector (-1 marks reduced Cn),
    run through the same level-aware erosion/dilation kernels, and dropped
    back to elements: any -1 corner keeps the element marked.  Padding adds
    no refinement by itself — refinement happens only at the interface
    (paper Sec. II-B3).
    """
    nodal = np.ones(mesh.n_nodes)
    nodal[mesh.nodes.elem_nodes[np.asarray(detected, dtype=bool)].ravel()] = -1.0
    vec = nodal[mesh.nodes.node_of_dof]
    if n_erode:
        vec = erode_dilate(mesh, vec, Stage.DILATION, n_erode, base_level)
        # NB: on the Cn indicator the *reduced* region is the -1 phase, so
        # "removing small -1 islands" is a DILATION of the +1 background.
    if n_dilate:
        vec = erode_dilate(mesh, vec, Stage.EROSION, n_dilate, base_level)
        # ... and padding the -1 region is an EROSION of the background.
    return np.any(mesh.elem_gather(vec) < 0.0, axis=1)
