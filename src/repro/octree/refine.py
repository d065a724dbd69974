"""Multi-level octree refinement (paper Algorithm 5, REFINE).

Replaces each leaf of a linear octree by its descendants at a per-leaf target
level, *in a single pass*, emitting output already in sorted (pre-order SFC)
order.  Unlike level-by-level AMR libraries, the jump may be arbitrarily
large — the paper's motivation is interfaces whose required depth changes by
many levels in one remeshing step.

Two implementations are provided:

* :func:`refine` — vectorized production version (groups leaves by level
  jump; per-leaf descendant blocks are emitted in Morton order, so the
  concatenation over sorted disjoint leaves is globally sorted).
* :func:`refine_recursive` — a literal transcription of Algorithm 5's
  SFC traversal, used as a cross-check oracle in the tests.
"""

from __future__ import annotations

import numpy as np

from . import morton
from .tree import Octree


def _morton_offsets(depth: int, dim: int) -> np.ndarray:
    """Anchors (in child-size units) of all depth-``depth`` descendants of a
    unit cell, listed in Morton (pre-order, equal-depth) order."""
    n = 1 << (dim * depth)
    codes = np.arange(n, dtype=np.uint64)
    out = np.empty((n, dim), dtype=np.int64)
    for axis in range(dim):
        out[:, axis] = morton._contract(codes >> np.uint64(axis), dim)
    return out


def refine(tree: Octree, target_levels: np.ndarray) -> Octree:
    """Replace each leaf by its descendants at ``target_levels[i]``.

    ``target_levels[i] >= tree.levels[i]`` is required (equal = keep).  Every
    descendant is kept: a leaf refined by ``d`` levels becomes ``2**(dim*d)``
    consecutive leaves.
    """
    target_levels = np.asarray(target_levels, dtype=np.int64).reshape(-1)
    if len(target_levels) != len(tree):
        raise ValueError("target_levels length mismatch")
    if np.any(target_levels < tree.levels):
        raise ValueError("refine cannot coarsen: target level above current")
    if np.any(target_levels > morton.MAX_DEPTH):
        raise ValueError("target level exceeds MAX_DEPTH")

    jumps = target_levels - tree.levels
    pieces_a = []
    pieces_l = []
    order_tags = []
    for d in np.unique(jumps):
        sel = jumps == d
        idx = np.nonzero(sel)[0]
        if d == 0:
            pieces_a.append(tree.anchors[sel])
            pieces_l.append(tree.levels[sel])
            order_tags.append(np.stack([idx, np.zeros_like(idx)], axis=1))
            continue
        offs = _morton_offsets(int(d), tree.dim)  # (m, dim)
        m = len(offs)
        child_size = morton.cell_size(tree.levels[sel] + d)  # (k,)
        anchors = (
            tree.anchors[sel][:, None, :] + offs[None, :, :] * child_size[:, None, None]
        ).reshape(-1, tree.dim)
        levels = np.repeat(target_levels[sel], m)
        pieces_a.append(anchors)
        pieces_l.append(levels)
        order_tags.append(
            np.stack(
                [np.repeat(idx, m), np.tile(np.arange(m, dtype=np.int64), len(idx))],
                axis=1,
            )
        )
    anchors = np.concatenate(pieces_a) if pieces_a else np.zeros((0, tree.dim), np.int64)
    levels = np.concatenate(pieces_l) if pieces_l else np.zeros(0, np.int64)
    tags = np.concatenate(order_tags) if order_tags else np.zeros((0, 2), np.int64)
    # Restore global pre-order: per-leaf blocks are already in Morton order,
    # leaves are sorted and disjoint, so sorting by (leaf index, block pos) is
    # enough — cheaper than re-keying.
    perm = np.lexsort((tags[:, 1], tags[:, 0]))
    return Octree(anchors[perm], levels[perm], tree.dim, presorted=True)


def refine_recursive(tree: Octree, target_levels: np.ndarray) -> Octree:
    """Literal Algorithm 5: single-pass SFC traversal with an input cursor."""
    target_levels = np.asarray(target_levels, dtype=np.int64).reshape(-1)
    if np.any(target_levels < tree.levels):
        raise ValueError("refine cannot coarsen")
    out_a: list = []
    out_l: list = []
    cursor = [0]  # oct_in / level_in pointer, passed by reference

    anchors, levels, dim = tree.anchors, tree.levels, tree.dim

    def visit(r_anchor: np.ndarray, r_level: int) -> None:
        i = cursor[0]
        if i >= len(levels):
            return
        if not morton.overlaps(r_anchor, r_level, anchors[i], levels[i]):
            return
        if r_level < target_levels[i]:
            ca, cl = morton.children(r_anchor, np.int64(r_level), dim)
            for c in range(1 << dim):
                visit(ca[c], int(cl[c]))
        else:
            out_a.append(r_anchor)
            out_l.append(r_level)
        # Advance past every input octant equal to the current subtree root.
        while cursor[0] < len(levels) and (
            levels[cursor[0]] == r_level
            and np.array_equal(anchors[cursor[0]], r_anchor)
        ):
            cursor[0] += 1

    # Traverse from each input leaf's coarsest enclosing start; simplest
    # faithful choice is the root.
    visit(np.zeros(dim, dtype=np.int64), 0)
    if not out_a:
        return Octree.empty(dim)
    return Octree(np.stack(out_a), np.asarray(out_l), dim, presorted=True)
