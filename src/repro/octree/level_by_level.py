"""Level-by-level refinement/coarsening baselines.

The paper's contribution #2 is multi-level refinement and coarsening in a
*single pass*; existing frameworks (p4est-style AMR drivers and the works
cited as [10-15]) change the mesh one level per pass, rebuilding intermediate
grids.  These baselines implement that prior-art protocol faithfully —
repeated single-level sweeps, each followed by re-linearization, exactly as a
framework constrained to ±1 level per adaptation step would run — so the
ablation benchmark can compare cost at equal results.
"""

from __future__ import annotations

import numpy as np

from .coarsen import coarsen
from .refine import refine
from .tree import Octree


def refine_level_by_level(tree: Octree, target_levels: np.ndarray):
    """Reach per-leaf targets one level per pass (prior-art baseline).

    Returns ``(tree, n_passes)``.  Each pass refines every leaf still above
    its target by exactly one level, then carries the targets to the children
    (one intermediate grid per level of depth change).
    """
    target_levels = np.asarray(target_levels, dtype=np.int64)
    if np.any(target_levels < tree.levels):
        raise ValueError("refine cannot coarsen")
    current = tree
    targets = target_levels
    passes = 0
    while np.any(targets > current.levels):
        step = np.minimum(targets, current.levels + 1)
        nxt = refine(current, step)
        # Re-derive targets for the new leaves (the intermediate-grid cost
        # the paper's single-pass algorithm avoids).
        orig = current.locate_points(nxt.centers().astype(np.int64))
        targets = np.maximum(targets[orig], nxt.levels)
        current = nxt
        passes += 1
    return current, passes


def coarsen_level_by_level(tree: Octree, votes: np.ndarray):
    """Reach per-leaf coarsening votes one level per pass.

    Returns ``(tree, n_passes)``.  Each pass promotes families by at most one
    level (votes clamped to ``level - 1``), then votes are re-derived on the
    surviving leaves.
    """
    votes = np.asarray(votes, dtype=np.int64)
    if np.any(votes > tree.levels):
        raise ValueError("votes must be at or coarser than current levels")
    current = tree
    cur_votes = votes
    passes = 0
    while True:
        step = np.maximum(cur_votes, current.levels - 1)
        nxt = coarsen(current, step)
        passes += 1
        if len(nxt) == len(current):
            # One extra fixed-point check pass, as a real driver would run.
            return nxt, passes
        # A new coarse leaf inherits the max (finest-constraint) vote over
        # the leaves it replaced: one dissenting descendant must keep
        # blocking deeper promotion, exactly as in the single-pass consensus.
        into = nxt.locate_points(current.centers().astype(np.int64))
        merged_votes = np.full(len(nxt), -1, dtype=np.int64)
        np.maximum.at(merged_votes, into, cur_votes)
        merged_votes = np.minimum(merged_votes, nxt.levels)
        current, cur_votes = nxt, merged_votes
