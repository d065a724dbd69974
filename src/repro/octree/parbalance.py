"""Distributed 2:1 balance restoration.

After parallel refinement or coarsening, the 2:1 condition must be restored
across rank boundaries (paper Sec. II-C1a: "once the refinement is
completed, the 2:1-balance condition must be restored").  The algorithm here
iterates to a global fixed point:

1. each rank ripple-balances its local (incomplete) chunk;
2. leaves whose balance stencil reaches outside the local chunk route their
   sample points to the owning rank (found from allgathered partition
   endpoint ranges) via the NBX sparse exchange; owners reply with the level
   of the containing leaf;
3. local leaves more than one level coarser than a remote neighbor are
   refined (multi-level, directly to the required level);
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
from .neighbors import neighbor_sample_points
from .refine import refine
from .tree import Octree

_MAX_ROUNDS = 64


def _owner_of_points(points: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Rank owning each grid point, from the allgathered first-key table."""
    keys = morton.point_keys(points, points.shape[-1])
    return np.maximum(np.searchsorted(starts, keys, side="right") - 1, 0)


def par_balance(comm: Comm, local: Octree) -> Octree:
    """Restore global 2:1 balance on an SFC-partitioned linear octree."""
    dim = local.dim
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

        # Sample points outside my coverage -> query their owners.
        if len(current):
            pts, inside = neighbor_sample_points(
                current.anchors, current.levels, dim
            )
            flat = pts.reshape(-1, dim)
            ok = inside.reshape(-1)
            located = np.full(len(flat), -1, dtype=np.int64)
            if np.any(ok):
                located[ok] = current.locate_points(flat[ok])
            remote_sel = ok & (located < 0)
            remote_pts = flat[remote_sel]
            # Level each remote point must satisfy: my leaf level - 1.
            need = np.repeat(
                current.levels, pts.shape[1]
            )[remote_sel] - 1
        else:
            remote_pts = np.zeros((0, dim), np.int64)
            need = np.zeros(0, np.int64)

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
