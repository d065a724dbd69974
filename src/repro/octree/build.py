"""Octree construction.

Trees are grown top-down from a refinement predicate (e.g. "refine while the
diffuse interface crosses this octant"), always over the whole root cube.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import morton
from .tree import Octree

RefinePredicate = Callable[[np.ndarray, np.ndarray], np.ndarray]
"""Maps (anchors (n, dim), levels (n,)) -> bool mask: True = subdivide."""


def build_tree(
    dim: int,
    refine: RefinePredicate,
    *,
    max_level: int,
    min_level: int = 0,
) -> Octree:
    """Grow a linear octree from the root.

    Every octant below ``min_level`` is always subdivided; octants at
    ``max_level`` never are.  ``refine`` decides everything in between, and
    is asked about nothing else: an octant whose fate the level bounds fix is
    never passed to it.
    """
    if not 0 <= min_level <= max_level <= morton.MAX_DEPTH:
        raise ValueError("bad level bounds")
    anchors = np.zeros((1, dim), dtype=np.int64)
    levels = np.zeros(1, dtype=np.int64)
    done_a, done_l = [], []
    while len(levels):
        want = levels < min_level
        ask = ~want & (levels < max_level)
        if np.any(ask):
            want[ask] = np.asarray(refine(anchors[ask], levels[ask]), dtype=bool)
        if np.any(~want):
            done_a.append(anchors[~want])
            done_l.append(levels[~want])
        if not np.any(want):
            break
        ca, cl = morton.children(anchors[want], levels[want], dim)
        anchors = ca.reshape(-1, dim)
        levels = cl.reshape(-1)
    if done_a:
        out = Octree(np.concatenate(done_a), np.concatenate(done_l), dim)
    else:
        out = Octree.empty(dim)
    return out


def uniform_tree(dim: int, level: int) -> Octree:
    """Complete uniform tree at the given level."""

    def never(anchors, levels):
        return np.zeros(len(levels), dtype=bool)

    return build_tree(dim, never, max_level=level, min_level=level)


def tree_from_function(
    dim: int,
    field: Callable[[np.ndarray], np.ndarray],
    *,
    max_level: int,
    min_level: int = 2,
    threshold: float = 1.0,
) -> Octree:
    """Refine octants crossed by (or near) the zero set of ``field``.

    ``field`` takes unit-cube coordinates ``(n, dim)`` and returns ``(n,)``
    values; the canonical use is a phase field ``phi`` with ``|phi| < 1`` near
    the interface (the paper refines where ``|phi| < delta``).  An octant is
    subdivided when the field changes sign across its corners/center or any
    sample magnitude falls below ``threshold``.
    """
    scale = float(1 << morton.MAX_DEPTH)
    nc = 1 << dim
    # corners, then the center sample
    corner_off = np.vstack([morton.corner_bits(dim), np.full((1, dim), 0.5)])

    def pred(anchors, levels):
        size = morton.cell_size(levels).astype(np.float64)
        pts = (
            anchors[:, None, :].astype(np.float64)
            + corner_off[None, :, :] * size[:, None, None]
        ) / scale
        vals = np.asarray(field(pts.reshape(-1, dim))).reshape(len(levels), nc + 1)
        near = np.any(np.abs(vals) < threshold, axis=1)
        crossing = (vals.min(axis=1) < 0) & (vals.max(axis=1) > 0)
        return near | crossing

    return build_tree(dim, pred, max_level=max_level, min_level=min_level)

