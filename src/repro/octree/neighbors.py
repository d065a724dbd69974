"""Neighbor queries on linear octrees.

Octrees store no explicit neighbor pointers (the paper stresses that its
algorithms avoid neighbor data structures); everything here reduces to point
location via binary search on SFC keys.
"""

from __future__ import annotations

import numpy as np

from . import morton
from .tree import Octree


def direction_stencil(dim: int) -> np.ndarray:
    """All ``3**dim - 1`` direction vectors in {-1, 0, 1}**dim, excluding 0."""
    grids = np.meshgrid(*([np.array([-1, 0, 1])] * dim), indexing="ij")
    dirs = np.stack([g.ravel() for g in grids], axis=1)
    return dirs[np.any(dirs != 0, axis=1)]


def neighbor_sample_points(anchors: np.ndarray, levels: np.ndarray, dim: int):
    """Sample points just outside each octant, one per direction.

    Returns ``points`` of shape ``(n, 3**dim - 1, dim)`` and a boolean
    ``inside`` mask marking points that fall inside the root cube.  The point
    for direction ``d`` sits one grid unit outside the octant across the
    middle of the corresponding face / edge / corner; by the octant-alignment
    covering property, the leaf containing this point is coarser-or-equal to
    *every* leaf touching the octant across that face / edge / corner, so a
    single sample per direction suffices for 2:1-balance checks.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    size = morton.cell_size(levels)
    # per octant, the coordinate along an axis whose direction component is
    # -1 (anchor - 1), 0 (anchor + size//2) or 1 (anchor + size); built one
    # axis at a time, which keeps NumPy's inner loops long
    step = np.stack([np.full_like(size, -1), size // 2, size], axis=1)
    dirs = direction_stencil(dim) + 1  # (m, dim) column of ``step``
    bound = 1 << morton.MAX_DEPTH
    points = np.empty((len(size), len(dirs), dim), dtype=np.int64)
    inside = np.ones(points.shape[:2], dtype=bool)
    for axis in range(dim):
        coord = anchors[:, axis, None] + step[:, dirs[:, axis]]
        points[..., axis] = coord
        inside &= (coord >= 0) & (coord < bound)
    return points, inside


def leaf_neighbors(tree: Octree, indices: np.ndarray | None = None):
    """For each leaf (or subset), the index of the leaf containing each
    directional sample point (-1 where outside the root cube or uncovered).

    Returns an ``(n, 3**dim - 1)`` array of leaf indices.
    """
    if indices is None:
        anchors, levels = tree.anchors, tree.levels
    else:
        anchors, levels = tree.anchors[indices], tree.levels[indices]
    points, inside = neighbor_sample_points(anchors, levels, tree.dim)
    flat = points.reshape(-1, tree.dim)
    ok = inside.reshape(-1)
    out = np.full(len(flat), -1, dtype=np.int64)
    if np.any(ok):
        out[ok] = tree.locate_points(flat[ok])
    return out.reshape(points.shape[:2])

