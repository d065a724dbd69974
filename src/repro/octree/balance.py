"""2:1 balancing of linear octrees.

A leaf set is 2:1-balanced when any two leaves sharing a face, edge, or
corner differ by at most one level.  Balance is a prerequisite for the
hanging-node FEM construction (each hanging node then interpolates from
non-hanging parents) and is restored after every multi-level refinement or
coarsening, as in the paper (Sec. II-C1a).

The implementation is "ripple" balancing: repeatedly locate, for every leaf,
the leaf containing each directional sample point; any located leaf more than
one level coarser is refined by one level (the multi-level
:func:`~repro.octree.refine.refine` applies all of a pass's refinements at
once), until a fixed point.  Termination is guaranteed because levels only
increase and are bounded by ``MAX_DEPTH``.

Only the first pass checks every leaf.  Refinement only raises levels, so the
leaf found across any face / edge / corner of a leaf that was not refined can
only get finer, and a leaf without a violation cannot gain one: each later
pass re-checks just the previous pass's violators and the leaves it created.
The result is the full ripple's, bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .domain import Domain
from . import morton
from .neighbors import leaf_neighbors
from .refine import refine
from .tree import Octree


def balance(tree: Octree, *, domain: Optional[Domain] = None) -> Octree:
    """Return the minimal 2:1-balanced refinement of a linear octree."""
    if not tree.is_linear():
        raise ValueError("balance requires a linear (leaf) octree")
    current, check = tree, None  # leaves to check; None = all of them
    for _ in range(4 * morton.MAX_DEPTH):  # +1 ripple: bounded by depth span
        nbr = leaf_neighbors(current, check)  # (n_check, m) leaf indices
        levels = current.levels
        mine = levels if check is None else levels[check]
        valid = nbr >= 0
        nbr_levels = np.where(valid, levels[np.where(valid, nbr, 0)], 10**9)
        # The leaf in direction d must be at least (my level - 1).
        required = mine[:, None] - 1
        viol = valid & (nbr_levels < required)
        if not np.any(viol):
            return current
        targets = levels.copy()
        flat_nbr = nbr[viol]
        flat_req = np.broadcast_to(required, viol.shape)[viol]
        np.maximum.at(targets, flat_nbr, flat_req)
        # Refine offenders by at most one level per pass: the +1 ripple
        # converges to the *minimal* balanced closure (refining straight to
        # the required level would refine the offender's whole footprint,
        # over-resolving the parts far from the fine neighbor).
        targets = np.minimum(targets, levels + 1)
        rows = np.any(viol, axis=1)
        violators = np.nonzero(rows)[0] if check is None else check[rows]
        old_keys = current.keys()
        current = refine(current, targets, domain=domain)
        # Found by key, not by counting: under ``domain`` refine drops void
        # children.  New leaves are the ones whose key the old tree lacks.
        keys = current.keys()
        check = np.nonzero(
            ~np.isin(keys, old_keys, assume_unique=True)
            | np.isin(keys, old_keys[violators], assume_unique=True)
        )[0]
    raise RuntimeError("2:1 balance did not converge")  # pragma: no cover


def is_balanced(tree: Octree) -> bool:
    """Check the 2:1 condition over all face/edge/corner adjacencies."""
    if len(tree) < 2:
        return True
    nbr = leaf_neighbors(tree)
    valid = nbr >= 0
    nbr_levels = np.where(valid, tree.levels[np.where(valid, nbr, 0)], 0)
    diff = np.abs(np.where(valid, nbr_levels - tree.levels[:, None], 0))
    return bool(np.all(diff <= 1))
