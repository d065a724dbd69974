"""Neighbor queries on linear octrees.

Octrees store no explicit neighbor pointers (the paper stresses that its
algorithms avoid neighbor data structures); everything here reduces to point
location via binary search on SFC keys.

The 2:1 checks (:mod:`~repro.octree.balance`,
:mod:`~repro.octree.parbalance`) locate one neighbour stencil per sibling
family, not per leaf: :func:`balance_stencil` queries the parent of every
complete family in the set it is given and each remaining leaf itself.
"""

from __future__ import annotations

from typing import NamedTuple

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


class BalanceStencil(NamedTuple):
    """The 2:1 stencil of a set of leaves, one row per queried octant.

    A row is a leaf, or the parent of a complete sibling family (``span``
    leaves from ``first`` on, child 0 first).  ``required`` is the coarsest
    level a leaf found by the row may have: the leaf's (children's) level
    minus one.  ``found`` holds the leaf containing each sample point, -1
    where the point is outside the root cube (``~inside``) or uncovered.
    """

    first: np.ndarray  # (q,) leaf index of the leaf / of the family's child 0
    span: np.ndarray  # (q,) 1 for a leaf, 2**dim for a family
    required: np.ndarray  # (q,)
    points: np.ndarray  # (q, 3**dim - 1, dim)
    inside: np.ndarray  # (q, 3**dim - 1)
    found: np.ndarray  # (q, 3**dim - 1)

    def violations(self, levels: np.ndarray) -> np.ndarray:
        """Where a found leaf is coarser than ``required``: ``(q, 3**dim - 1)``."""
        return (self.found >= 0) & (levels[self.found] < self.required[:, None])

    def leaves(self, rows: np.ndarray) -> np.ndarray:
        """Sorted indices of the leaves the selected rows stand for."""
        first, span = self.first[rows], self.span[rows]
        start = np.repeat(first - (np.cumsum(span) - span), span)
        return start + np.arange(len(start), dtype=np.int64)


def balance_stencil(
    tree: Octree, check: np.ndarray | None = None
) -> BalanceStencil:
    """Locate the 2:1 stencil of the leaves ``check`` (sorted; all if None).

    A complete family (the ``2**dim`` children of one parent, consecutive
    leaves at one level, all in ``check``) is queried through its parent at
    its children's level.  That is exact, by the covering property of
    :func:`neighbor_sample_points`: a leaf coarser than the parent at the
    parent's sample point covers the whole parent-sized neighbour region, so
    every child that would see a violation there sees that same leaf; a
    region holding no leaf coarser than the parent holds no violation for
    any child (siblings share a level).  Families are found from anchors and
    levels, not by counting blocks: a carved domain drops void children, and
    an incomplete family falls back to one row per leaf.
    """
    dim = tree.dim
    if check is None:
        idx = np.arange(len(tree), dtype=np.int64)
        anchors, levels = tree.anchors, tree.levels
    else:
        idx = np.asarray(check, dtype=np.int64)
        anchors, levels = tree.anchors[idx], tree.levels[idx]
    m = 1 << dim
    family = np.zeros(len(idx), dtype=bool)  # entry k starts a complete family
    if len(idx) >= m:
        size = morton.cell_size(levels)[:, None]
        parent = anchors & ~size  # a level-L anchor's bit L is its child bit
        # ``sibling[k]``: entry k + 1 is the next leaf and a sibling of entry k
        sibling = (
            (np.diff(idx) == 1)
            & (levels[1:] == levels[:-1])
            & np.all(parent[1:] == parent[:-1], axis=1)
        )
        # m - 1 sibling links in a row are the m children of one parent,
        # child 0 first (the tree is in Morton order)
        run = np.concatenate(([0], np.cumsum(sibling)))
        n_start = len(idx) - m + 1
        family[:n_start] = run[m - 1:] - run[:n_start] == m - 1
    keep = np.ones(len(idx), dtype=bool)
    keep[(np.nonzero(family)[0][:, None] + np.arange(1, m)).ravel()] = False
    first, family, levels = idx[keep], family[keep], levels[keep]
    points, inside = neighbor_sample_points(
        anchors[keep], levels - family, dim
    )
    flat = points.reshape(-1, dim)
    ok = inside.reshape(-1)
    found = np.full(len(flat), -1, dtype=np.int64)
    if np.any(ok):
        found[ok] = tree.locate_points(flat[ok])
    return BalanceStencil(first, np.where(family, m, 1), levels - 1, points,
                          inside, found.reshape(points.shape[:2]))
