"""2:1 balancing of linear octrees.

A leaf set is 2:1-balanced when any two leaves sharing a face, edge, or
corner differ by at most one level.  Balance is a prerequisite for the
hanging-node FEM construction (each hanging node then interpolates from
non-hanging parents) and is restored after every multi-level refinement or
coarsening, as in the paper (Sec. II-C1a).

The implementation is "ripple" balancing: repeatedly locate, for every
sibling family, the leaf containing each directional sample point of the
family's parent (and of every leaf outside a complete family, the leaf's
own; :func:`~repro.octree.neighbors.balance_stencil`); any located leaf more
than one level coarser than the family's children is refined by one level
(the multi-level :func:`~repro.octree.refine.refine` applies all of a pass's
refinements at once), until a fixed point.  Termination is guaranteed
because levels only increase and are bounded by ``MAX_DEPTH``.

Asking per family finds the same (leaf, required level) pairs as asking per
leaf, so every pass refines to the same targets and the intermediate trees
are the per-leaf ripple's.  Only the first pass checks every leaf.
Refinement only raises levels, so the leaf found across any face / edge /
corner of a leaf that was not refined can only get finer, and a leaf without
a violation cannot gain one: each later pass re-checks just the leaves the
previous pass flagged (every child of a flagged family) and the leaves it
created.  The result is the full ripple's, bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .domain import Domain
from . import morton
from .neighbors import balance_stencil
from .refine import refine
from .tree import Octree


def balance(tree: Octree, *, domain: Optional[Domain] = None) -> Octree:
    """Return the minimal 2:1-balanced refinement of a linear octree."""
    if not tree.is_linear():
        raise ValueError("balance requires a linear (leaf) octree")
    current, check = tree, None  # leaves to check; None = all of them
    for _ in range(4 * morton.MAX_DEPTH):  # +1 ripple: bounded by depth span
        stencil = balance_stencil(current, check)
        levels = current.levels
        viol = stencil.violations(levels)  # (n_queries, m)
        if not np.any(viol):
            return current
        targets = levels.copy()
        flat_req = np.broadcast_to(stencil.required[:, None], viol.shape)[viol]
        np.maximum.at(targets, stencil.found[viol], flat_req)
        # Refine offenders by at most one level per pass: the +1 ripple
        # converges to the *minimal* balanced closure (refining straight to
        # the required level would refine the offender's whole footprint,
        # over-resolving the parts far from the fine neighbor).
        targets = np.minimum(targets, levels + 1)
        violators = stencil.leaves(np.any(viol, axis=1))
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
    """Check the 2:1 condition over all face/edge/corner adjacencies.

    One direction suffices: a leaf more than one level finer than a leaf it
    touches finds that leaf at one of its (or its family's) sample points.
    """
    return not np.any(balance_stencil(tree).violations(tree.levels))
