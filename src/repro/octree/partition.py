"""SFC-based partitioning of distributed linear octrees.

A distributed octree assigns each rank a contiguous chunk of the globally
SFC-sorted leaf list.  Partitioning supports per-leaf weights so remeshing
can rebalance element work (the paper treats load balancing as its own step
after coarsening and 2:1 balance restoration).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..mpi.comm import Comm
from . import morton
from .tree import Octree


def scatter_tree(tree: Octree, nparts: int) -> list[Octree]:
    """Split a (sorted, linear) tree into ``nparts`` contiguous chunks —
    utility for setting up distributed tests and benchmarks."""
    bounds = np.linspace(0, len(tree), nparts + 1).astype(np.int64)
    return [
        Octree(
            tree.anchors[bounds[r] : bounds[r + 1]],
            tree.levels[bounds[r] : bounds[r + 1]],
            tree.dim,
            presorted=True,
        )
        for r in range(nparts)
    ]


def repartition(
    comm: Comm,
    local: Octree,
    weights: Optional[np.ndarray] = None,
    payload: Optional[np.ndarray] = None,
):
    """Repartition a distributed sorted octree to balance (weighted) load.

    Preserves global SFC order.  Returns the new local tree (and payload).
    """
    n = len(local)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    local_tot = float(w.sum())
    prefix = comm.exscan(local_tot)
    prefix = 0.0 if prefix is None else prefix
    total = comm.allreduce(local_tot)
    if total <= 0:
        total = 1.0
    # Destination rank by cumulative weight midpoint.
    cum = prefix + np.cumsum(w) - 0.5 * w
    dest = np.minimum((cum / total * comm.size).astype(np.int64), comm.size - 1)
    keys = local.keys()
    sends_k = [keys[dest == r] for r in range(comm.size)]
    recv_k = np.concatenate(comm.alltoallv(sends_k))
    anchors, levels = morton.decode_key(recv_k, local.dim)
    out = Octree(anchors, levels, local.dim, presorted=True)
    if payload is not None:
        sends_p = [payload[dest == r] for r in range(comm.size)]
        recv_p = np.concatenate(comm.alltoallv(sends_p))
        return out, recv_p
    return out


def partition_endpoints(comm: Comm, local: Octree):
    """Arrays of every rank's first/last octants (``G^-``, ``G^+`` of the
    paper's overlap search).  Empty ranks contribute ``None``."""
    first = (
        (local.anchors[0].copy(), int(local.levels[0])) if len(local) else None
    )
    last = (
        (local.anchors[-1].copy(), int(local.levels[-1])) if len(local) else None
    )
    eps = comm.allgather((first, last))
    return [e[0] for e in eps], [e[1] for e in eps]
