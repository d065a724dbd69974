"""Multi-level octree coarsening (paper Algorithm 6, COARSEN).

Each input leaf *votes* the coarsest level it can accept being promoted to
(``votes[i] <= tree.levels[i]``).  An ancestor ``A`` of input leaves is output
iff (i) no input leaf under ``A`` votes a level finer than ``level(A)``, and
(ii) the same cannot be said of ``A``'s parent — i.e. the output is the
*coarsest* set of ancestors consistent with every vote.  Incomplete subtrees
are allowed: a parent whose children are not all in the input (a partition
chunk that starts or ends inside the family) may still be emitted, as in the
paper.

:func:`coarsen` is a vectorized bottom-up merge.  A literal post-order
transcription of Algorithm 6 with push/pop output semantics,
``coarsen_recursive`` in ``tests/oracles.py``, is the tests' oracle.
"""

from __future__ import annotations

import numpy as np

from . import morton
from .tree import Octree


def coarsen(tree: Octree, votes: np.ndarray) -> Octree:
    """Coarsen a linear octree to the consensus of per-leaf votes."""
    votes = np.asarray(votes, dtype=np.int64).reshape(-1)
    if len(votes) != len(tree):
        raise ValueError("votes length mismatch")
    if np.any(votes > tree.levels):
        raise ValueError("votes must be at or coarser than current levels")
    if np.any(votes < 0):
        raise ValueError("votes must be nonnegative")
    if len(tree) == 0:
        return Octree.empty(tree.dim)

    # The sorted working set with, per member, its SFC key and the finest
    # vote among the input leaves inside it.  The keys travel with the set:
    # the tree's own to start with, the merged parents' from the grouping.
    anchors, levels, k, maxvote = tree.anchors, tree.levels, tree.keys(), votes

    for lev in range(int(levels.max()), 0, -1):
        at = np.nonzero(levels == lev)[0]
        if len(at) == 0:
            continue
        # Candidates: members at this level whose subtree accepts the parent.
        cand = at[maxvote[at] <= lev - 1]
        if len(cand) == 0:
            continue
        pa = morton.coarsen_anchor(anchors[cand], levels[cand], lev - 1)
        pkey = morton.keys(pa, np.full(len(cand), lev - 1), tree.dim)
        order = np.argsort(pkey, kind="stable")
        cand, pa, pkey = cand[order], pa[order], pkey[order]
        uniq, start, counts = np.unique(pkey, return_index=True, return_counts=True)
        # A parent may be formed only if *every* current member under it is a
        # candidate at this level (no finer leftovers, no non-candidate
        # sibling).  Members under a parent are contiguous in the sorted tree.
        p_anchors = pa[start]
        p_levels = np.full(len(uniq), lev - 1, dtype=np.int64)
        lo, hi = morton.descendant_key_range(p_anchors, p_levels, tree.dim)
        n_under = np.searchsorted(k, hi) - np.searchsorted(k, lo)
        form = n_under == counts
        if not np.any(form):
            continue
        # Indices of members being merged, and their replacement parents.
        grp_max = np.maximum.reduceat(maxvote[cand], start)
        drop = cand[np.repeat(form, counts)]
        keep = np.ones(len(levels), dtype=bool)
        keep[drop] = False
        nform = int(form.sum())
        anchors = np.concatenate([anchors[keep], p_anchors[form]])
        levels = np.concatenate([levels[keep], np.full(nform, lev - 1, np.int64)])
        maxvote = np.concatenate([maxvote[keep], grp_max[form]])
        k = np.concatenate([k[keep], uniq[form]])
        order = np.argsort(k, kind="stable")
        anchors, levels, maxvote, k = (
            anchors[order], levels[order], maxvote[order], k[order]
        )

    return Octree(anchors, levels, tree.dim, presorted=True)
