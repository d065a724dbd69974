"""Distributed 2:1 balance restoration.

After parallel refinement or coarsening, the 2:1 condition must be restored
across rank boundaries (paper Sec. II-C1a: "once the refinement is
completed, the 2:1-balance condition must be restored").  The algorithm here
iterates to a global fixed point:

1. each rank ripple-balances its local (incomplete) chunk;
2. sample points of the local balance stencil (one per direction of every
   complete sibling family's parent, and of every other leaf; see
   :func:`~repro.octree.neighbors.balance_stencil`) that fall outside the
   local chunk are routed to the owning rank (found from allgathered
   partition endpoint ranges) via the NBX sparse exchange, with the level
   the leaf there must reach;
3. a leaf more than one level coarser than a remote neighbor is refined by
   one level per round (the serial balance's minimal +1 ripple);
4. an allreduce detects global convergence.

Levels only increase and are bounded, so termination is guaranteed; the
result equals the serial balance of the gathered tree (tested property).
"""

from __future__ import annotations

import numpy as np

from ..mpi.comm import Comm
from ..mpi.sparse_exchange import nbx_exchange
from . import morton
from .balance import balance
from .neighbors import balance_stencil
from .refine import refine
from .tree import Octree

_MAX_ROUNDS = 64


def _owner_of_points(points: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Rank owning each grid point, from the allgathered first-key table."""
    keys = morton.point_keys(points, points.shape[-1])
    return np.maximum(np.searchsorted(starts, keys, side="right") - 1, 0)


def par_balance(comm: Comm, local: Octree) -> Octree:
    """Restore global 2:1 balance on an SFC-partitioned linear octree."""
    current = local

    for _ in range(_MAX_ROUNDS):
        current = balance(current)  # local pass (incomplete chunk)

        # Partition table: first key per rank (empty ranks excluded).
        first = current.keys()[0] if len(current) else None
        firsts = comm.allgather(first)
        owners = [r for r, f in enumerate(firsts) if f is not None]
        starts = np.array(
            [firsts[r] for r in owners], dtype=np.uint64
        )

        # Stencil points outside my coverage -> query their owners, with
        # the level the leaf there must reach.
        stencil = balance_stencil(current)
        remote_sel = stencil.inside & (stencil.found < 0)
        remote_pts = stencil.points[remote_sel]
        need = np.broadcast_to(
            stencil.required[:, None], remote_sel.shape
        )[remote_sel]

        outgoing = {}
        if len(remote_pts):
            dest = np.array(owners)[
                _owner_of_points(remote_pts, starts)
            ]
            for q in np.unique(dest):
                if q == comm.rank:
                    continue
                sel = dest == q
                outgoing[int(q)] = (remote_pts[sel], need[sel])
        incoming = nbx_exchange(comm, outgoing)

        # Serve queries: refine my leaves that violate a remote requirement,
        # by at most one level per round (minimal +1 ripple, matching the
        # serial balance closure).
        targets = current.levels.copy()
        # Sorted by querying rank: NBX arrival order is schedule-dependent,
        # so this keeps the update order deterministic on every backend
        # even though `maximum` happens to commute.
        for _, (qpts, qneed) in sorted(incoming.items()):
            if not len(current):
                continue
            idx = current.locate_points(qpts)
            hit = idx >= 0
            if np.any(hit):
                np.maximum.at(targets, idx[hit], qneed[hit])
        targets = np.minimum(targets, current.levels + 1)
        changed = int(np.sum(targets > current.levels))
        if changed:
            current = refine(current, targets)
        total_changed = comm.allreduce(changed)
        if total_changed == 0:
            return current

    raise RuntimeError("par_balance did not converge")  # pragma: no cover
