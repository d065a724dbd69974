"""Parallel multi-level coarsening (paper Algorithm 7, PARCOARSEN).

The distributed input octree is coarsened locally on each rank (tentative
pass), tentative coarse octants at partition endpoints are exchanged with
neighbor ranks, inputs overlapped by a *coarser* remote contender are
repartitioned toward that contender ("option three" in the paper — no
redundant domain tests, no ping-pong after splitting), and a second local
pass finishes the job.

The paper notes the rare case of a tentative octant so coarse that it
overlaps multiple remote partitions, resolved by a distributed exponential
search; we realize the same effect by iterating the endpoint-exchange step
to a fixed point (each iteration moves inputs strictly toward coarsest
contenders, and the level of any contender is bounded, so it terminates).
"""

from __future__ import annotations

import numpy as np

from ..mpi.comm import Comm
from ..mpi.sparse_exchange import nbx_exchange
from . import morton
from .coarsen import coarsen
from .overlap import local_overlap_range
from .tree import Octree

_MAX_ROUNDS = 64


def _endpoint(tree: Octree, idx: int):
    if len(tree) == 0:
        return None
    return (tree.anchors[idx].copy(), int(tree.levels[idx]))


def par_coarsen(comm: Comm, local: Octree, votes: np.ndarray) -> Octree:
    """Coarsen a distributed sorted linear octree to the global consensus of
    per-leaf votes.  Returns the new local chunk; concatenated over ranks the
    result equals the serial :func:`~repro.octree.coarsen.coarsen` of the
    gathered input (tested property), with duplicates removed.
    """
    cur_votes = np.asarray(votes, dtype=np.int64).reshape(-1)
    if len(cur_votes) != len(local):
        raise ValueError("votes length mismatch")
    dim = local.dim
    anchors = local.anchors
    levels = local.levels

    for _ in range(_MAX_ROUNDS):
        cur = Octree(anchors, levels, dim, presorted=True)
        tentative = coarsen(cur, cur_votes)  # first (tentative) pass
        head = _endpoint(tentative, 0)
        tail = _endpoint(tentative, -1)
        # Exchange tentative endpoints with both neighbors.
        eps = comm.allgather((head, tail))

        # Which of my inputs move?  The relevant neighbors are the nearest
        # *non-empty* ranks on either side (empty ranks must not break the
        # chain).  A previous coarser-or-equal contender wins ties; the next
        # contender must be strictly coarser (the paper's asymmetry prevents
        # both sides claiming the same inputs).
        r = comm.rank
        prev_rank = next(
            (q for q in range(r - 1, -1, -1) if eps[q][1] is not None), None
        )
        next_rank = next(
            (q for q in range(r + 1, comm.size) if eps[q][0] is not None), None
        )
        send_prev = np.zeros(len(levels), dtype=bool)
        send_next = np.zeros(len(levels), dtype=bool)
        if prev_rank is not None and head is not None:
            prev_tail = eps[prev_rank][1]
            if prev_tail[1] <= head[1]:  # level comparison: they win ties
                s, e = local_overlap_range(cur, prev_tail[0], prev_tail[1])
                send_prev[s:e] = True
        if next_rank is not None and tail is not None:
            next_head = eps[next_rank][0]
            if next_head[1] < tail[1]:
                s, e = local_overlap_range(cur, next_head[0], next_head[1])
                send_next[s:e] = True
        send_prev &= ~send_next  # an input moves one way only

        moved = int(send_prev.sum() + send_next.sum())
        total_moved = comm.allreduce(moved)
        if total_moved == 0:
            return tentative

        # Repartition overlapped inputs toward the coarsest contender (votes
        # travel along); the sparse pattern uses the NBX exchange.
        keep = ~(send_prev | send_next)
        outgoing = {}
        if prev_rank is not None and np.any(send_prev):
            outgoing[prev_rank] = (
                anchors[send_prev],
                levels[send_prev],
                cur_votes[send_prev],
            )
        if next_rank is not None and np.any(send_next):
            outgoing[next_rank] = (
                anchors[send_next],
                levels[send_next],
                cur_votes[send_next],
            )
        incoming = nbx_exchange(comm, outgoing)
        # Indexed by sorted source rank: exchange arrival order is
        # schedule-dependent, and the stable argsort below preserves the
        # concatenation order between equal morton keys.
        pieces = [(anchors[keep], levels[keep], cur_votes[keep])] + [
            incoming[q] for q in sorted(incoming)
        ]
        anchors = np.concatenate([p[0] for p in pieces])
        levels = np.concatenate([p[1] for p in pieces])
        cur_votes = np.concatenate([p[2] for p in pieces])
        order = np.argsort(morton.keys(anchors, levels, dim), kind="stable")
        anchors, levels, cur_votes = anchors[order], levels[order], cur_votes[order]

    raise RuntimeError("par_coarsen did not converge")  # pragma: no cover
