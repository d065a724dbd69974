"""Adaptive octree FEM mesh.

Wraps a 2:1-balanced linear octree and its CG node table with the geometric
conveniences used by the solvers: unit-cube coordinates, element sizes,
boundary masks, and field sampling.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..fem.basis import shape_functions
from ..octree import morton
from ..octree.balance import balance, is_balanced
from ..octree.tree import Octree
from .nodes import NodeTable, enumerate_nodes


class Mesh:
    """FEM view of a balanced linear octree over the unit cube.

    A ``Mesh`` never mutates: an AMR remesh builds a new one.  Everything
    derived from it lives in its ``memo`` and dies with it.
    """

    def __init__(self, tree: Octree, *, check_balance: bool = True):
        if check_balance and not is_balanced(tree):
            raise ValueError("Mesh requires a 2:1-balanced octree; call balance()")
        self.tree = tree
        self.dim = tree.dim
        self.nodes: NodeTable = enumerate_nodes(tree)
        self._scale = float(1 << morton.MAX_DEPTH)
        self._elem_h: Optional[np.ndarray] = None
        #: data derived from this mesh that must die with it: the assembly
        #: plan (``"plan"``), GMG chains (``("gmg", coarsest)``), the
        #: quad-point phase slot (``"phase"``)
        self.memo: dict = {}

    # ------------------------------------------------------------- factory

    @classmethod
    def from_tree(cls, tree: Octree) -> "Mesh":
        """Balance (if needed) and build.  ``balance`` returns a balanced
        tree itself after one pass, so it is also the check."""
        return cls(balance(tree), check_balance=False)

    # ------------------------------------------------------------ geometry

    @property
    def n_elems(self) -> int:
        return len(self.tree)

    @property
    def n_dofs(self) -> int:
        return self.nodes.n_dofs

    @property
    def n_nodes(self) -> int:
        return self.nodes.n_nodes

    def node_xy(self) -> np.ndarray:
        """Node coordinates in the unit cube, shape (n_nodes, dim)."""
        return self.nodes.coords / self._scale

    def dof_xy(self) -> np.ndarray:
        """Coordinates of DOF-carrying (non-hanging) nodes."""
        return self.nodes.coords[self.nodes.node_of_dof] / self._scale

    def elem_h(self) -> np.ndarray:
        """Element side lengths in unit-cube units, shape (n_elems,).

        Cached: the octree backing a ``Mesh`` never mutates (adaptation
        builds a new ``Mesh``), and this array feeds every elemental-operator
        evaluation in the solver hot path.
        """
        if self._elem_h is None:
            self._elem_h = self.tree.sizes().astype(np.float64) / self._scale
        return self._elem_h

    def elem_centers(self) -> np.ndarray:
        return self.tree.centers() / self._scale

    # ----------------------------------------------------------- boundaries

    def boundary_node_mask(self) -> np.ndarray:
        """Nodes on the unit-cube boundary."""
        c = self.nodes.coords
        hi = 1 << morton.MAX_DEPTH
        return np.any((c == 0) | (c == hi), axis=1)

    def boundary_dof_mask(self) -> np.ndarray:
        return self.boundary_node_mask()[self.nodes.node_of_dof]

    def face_dof_mask(self, axis: int, side: int) -> np.ndarray:
        """DOFs on one face of the cube: ``side`` 0 (low) or 1 (high)."""
        c = self.nodes.coords[self.nodes.node_of_dof]
        hi = 1 << morton.MAX_DEPTH
        target = 0 if side == 0 else hi
        return c[:, axis] == target

    # ------------------------------------------------------------- sampling

    def interpolate(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """DOF vector of a function sampled at DOF node coordinates."""
        return np.asarray(f(self.dof_xy()))

    def node_values(self, u: np.ndarray) -> np.ndarray:
        """All-node values (hanging interpolated) of a DOF vector."""
        return self.nodes.node_values(u)

    def elem_gather(self, u: np.ndarray) -> np.ndarray:
        """Per-element corner values (n_elems, 2**dim[, k]) of a DOF vector.

        This is the paper's GhostRead + elemental copy: hanging corners
        receive interpolated values automatically through ``P``.
        """
        nv = self.nodes.node_values(u)
        return nv.take(self.nodes.elem_nodes, axis=0)

    def evaluate_at(self, u: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the FE field at arbitrary unit-cube points."""
        points = np.asarray(points, dtype=np.float64)
        grid = np.clip(
            (points * self._scale).astype(np.int64), 0, (1 << morton.MAX_DEPTH) - 1
        )
        elems = self.tree.locate_points(grid)
        if np.any(elems < 0):
            raise ValueError("point outside the mesh domain")
        a = self.tree.anchors[elems]
        s = self.tree.sizes()[elems].astype(np.float64)
        xi = np.clip((points * self._scale - a) / s[:, None], 0.0, 1.0)
        corner_vals = self.node_values(u)[self.nodes.elem_nodes[elems]]
        w = shape_functions(xi, self.dim)
        if corner_vals.ndim == 3:
            return np.einsum("pc,pck->pk", w, corner_vals)
        return np.einsum("pc,pc->p", w, corner_vals)


def mesh_from_field(
    field: Callable[[np.ndarray], np.ndarray],
    dim: int,
    *,
    max_level: int,
    min_level: int = 2,
    threshold: float,
) -> Mesh:
    """Convenience: interface-refined, balanced mesh from a level-set-like
    field (see :func:`repro.octree.build.tree_from_function`)."""
    from ..octree.build import tree_from_function

    t = tree_from_function(
        dim, field, max_level=max_level, min_level=min_level, threshold=threshold
    )
    return Mesh.from_tree(t)
