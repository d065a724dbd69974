"""Level-aware erosion/dilation as MATVEC passes (paper Algorithm 2).

Each step is one pass over the local elements: gather nodal values
(GhostRead), detect interface elements (Eq. 5), and write the stage value
into every node of triggered elements (GhostWrite with INSERT_VALUES — the
paper's remark: concurrent identical inserts are race-free, so no element
ordering matters).

The octree twist is the *level counter*: an element ``b_l - l`` levels
coarser than the base level ``b_l`` erodes/dilates only every
``b_l - l + 1``-th visit, so the morphological front advances at a uniform
physical speed across resolution jumps.  The base level is the finest level
the run resolves (``RemeshConfig.feature_level`` inside a remesh): a
property of the configuration, not of the mesh the field happens to be on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..mesh.mesh import Mesh
from .threshold import interface_of_nodal


class Stage(Enum):
    EROSION = -1.0
    DILATION = +1.0


@dataclass
class ErodeDilateStats:
    """Per-call diagnostics (used by the MATVEC scaling benchmark)."""

    steps: int = 0
    elements_visited: int = 0
    elements_triggered: int = 0


def erode_dilate(
    mesh: Mesh,
    bw: np.ndarray,
    stage: Stage,
    num_steps: int,
    base_level: int,
    stats: ErodeDilateStats | None = None,
) -> np.ndarray:
    """Run ``num_steps`` erosion or dilation sweeps on a ±1 nodal DOF vector.

    ``base_level`` must be at least the finest level of the mesh.  Returns
    the updated DOF vector (a new array).
    """
    val = stage.value
    levels = mesh.tree.levels
    wait = base_level - levels  # visits to skip between triggers
    if np.any(wait < 0):
        raise ValueError("base_level must be at least the finest mesh level")
    counters = np.zeros(mesh.n_elems, dtype=np.int64)
    vec = np.asarray(bw, dtype=np.float64).copy()
    en = mesh.nodes.elem_nodes
    node_of_dof = mesh.nodes.node_of_dof

    for _ in range(num_steps):
        nodal = mesh.node_values(vec)  # GhostRead (hanging interpolated)
        has_if = interface_of_nodal(nodal, en)
        trigger = has_if & (counters >= wait)
        counters[has_if & ~trigger] += 1
        counters[trigger] = 0
        if stats is not None:
            stats.steps += 1
            stats.elements_visited += mesh.n_elems
            stats.elements_triggered += int(trigger.sum())
        if np.any(trigger):
            nodal_new = nodal.copy()
            nodal_new[en[trigger].ravel()] = val  # INSERT_VALUES
            vec = nodal_new[node_of_dof]  # GhostWrite back to owners
        # else: vec unchanged this sweep
    return vec
