"""Distributed sorting of octree keys.

Sorting keys in distributed memory is the building block of repartitioning,
2:1 balancing, and nodal enumeration (paper Sec. II-C3).  Two algorithms:

* :func:`sample_sort` — flat splitter-based sample sort (the "old
  implementation" whose Allreduce/Alltoall scaled as O(p)).
* :func:`kway_sort` — hierarchical k-way staged exchange (HykSort-flavored):
  at each stage data moves between at most ``k`` superpartitions of the
  current communicator, so splitter storage is O(k) and the exchange happens
  in O(log_k p) stages.

Both accept an optional ``payload`` array carried along with the keys (e.g.
coarsening votes, nodal ownership tags).  Results are globally sorted and
load-balanced to within one splitter bucket.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .comm import Comm
from .hierarchical import kway_stage_comms


def _split_by_splitters(keys: np.ndarray, splitters: np.ndarray) -> list[slice]:
    """Bucket boundaries of sorted ``keys`` for ``len(splitters)+1`` buckets."""
    cuts = np.searchsorted(keys, splitters, side="left")
    bounds = np.concatenate([[0], cuts, [len(keys)]])
    return [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)]


def _choose_splitters(
    comm: Comm, keys: np.ndarray, nbuckets: int, oversample: int = 8
) -> np.ndarray:
    """Regular-sampling splitters agreed by all ranks of ``comm``."""
    ns = nbuckets * oversample
    if len(keys):
        idx = np.linspace(0, len(keys) - 1, ns).astype(np.int64)
        sample = keys[idx]
    else:
        sample = np.zeros(0, dtype=np.uint64 if keys.dtype == np.uint64 else keys.dtype)
    all_samples = np.concatenate(comm.allgather(sample))
    all_samples.sort()
    if len(all_samples) == 0:
        return all_samples[:0]
    pick = np.linspace(0, len(all_samples) - 1, nbuckets + 1).astype(np.int64)[1:-1]
    return all_samples[pick]


def sample_sort(
    comm: Comm, keys: np.ndarray, payload: Optional[np.ndarray] = None
):
    """Flat sample sort across all ranks of ``comm``.

    Returns ``sorted_keys`` (and ``sorted_payload`` if given), globally
    sorted: every key on rank r precedes every key on rank r+1.  Either every
    rank of ``comm`` passes a ``payload`` or none does: the payload arm issues
    its own ``alltoallv``.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    payload = payload[order] if payload is not None else None
    splitters = _choose_splitters(comm, keys, comm.size)
    slices = _split_by_splitters(keys, splitters)
    out_k = comm.alltoallv([keys[s] for s in slices])
    merged_k = np.concatenate(out_k) if out_k else keys[:0]
    if payload is not None:
        out_p = comm.alltoallv([payload[s] for s in slices])
        merged_p = np.concatenate(out_p)
    order = np.argsort(merged_k, kind="stable")
    if payload is not None:
        return merged_k[order], merged_p[order]
    return merged_k[order]


def kway_sort(
    comm: Comm,
    keys: np.ndarray,
    payload: Optional[np.ndarray] = None,
    *,
    k: int = 128,
):
    """Hierarchical k-way staged sample sort (paper Sec. II-C3a).

    Each stage routes data into one of at most ``k`` superpartitions of the
    current (memoized) stage communicator, then recurses within the
    superpartition.  For ``p <= k`` this degenerates to one flat sample sort,
    matching the paper's default ``k = 128`` needing at most three stages up
    to 2M processes.  ``payload`` is all-ranks-or-none, as in
    :func:`sample_sort`.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    payload = payload[order] if payload is not None else None

    ladder = kway_stage_comms(comm, k)
    cur = comm
    for sub, group, ngroups in ladder:
        # Choose ngroups-1 splitters over the *current* communicator, route
        # buckets to superpartitions, keeping per-stage partition count <= k.
        splitters = _choose_splitters(cur, keys, ngroups)
        slices = _split_by_splitters(keys, splitters)
        # Target rank for bucket g: spread within the g-th block of cur.
        base = cur.size // ngroups
        extra = cur.size % ngroups
        starts = np.zeros(ngroups + 1, dtype=np.int64)
        for g in range(ngroups):
            starts[g + 1] = starts[g] + base + (1 if g < extra else 0)
        sends = [keys[:0]] * cur.size
        sends_p = [None] * cur.size
        for g, s in enumerate(slices):
            # Deterministic in-block spreading by source rank.
            width = int(starts[g + 1] - starts[g])
            dest = int(starts[g]) + (cur.rank % max(width, 1))
            sends[dest] = keys[s]
            if payload is not None:
                sends_p[dest] = payload[s]
        recv = cur.alltoallv(sends)
        keys = np.concatenate(recv)
        if payload is not None:
            recv_p = cur.alltoallv(
                [p if p is not None else payload[:0] for p in sends_p]
            )
            payload = np.concatenate(recv_p)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        payload = payload[order] if payload is not None else None
        cur = sub
    # Final stage: flat sample sort within the last (<= k ranks) block...
    # which alone does not yield a *global* order across blocks; the staged
    # routing above already ensured block g holds only keys below block g+1.
    if payload is not None:
        return sample_sort(cur, keys, payload)
    return sample_sort(cur, keys)


def is_globally_sorted(comm: Comm, keys: np.ndarray) -> bool:
    """Check local sortedness and cross-rank boundary order."""
    local_ok = bool(np.all(keys[:-1] <= keys[1:])) if len(keys) > 1 else True
    first = keys[0] if len(keys) else None
    last = keys[-1] if len(keys) else None
    triple = comm.allgather((local_ok, first, last))
    ok = all(t[0] for t in triple)
    prev_last = None
    for _, f, l in triple:
        if f is None:
            continue
        if prev_last is not None and f < prev_last:
            ok = False
        prev_last = l if l is not None else prev_last
    return ok


def partition_balanced(
    comm: Comm, keys: np.ndarray, payload: Optional[np.ndarray] = None
):
    """Repartition globally sorted data into near-equal chunks per rank.

    This is the load-balance step run after sorting/coarsening; it preserves
    global order.
    """
    keys = np.asarray(keys)
    counts = np.asarray(comm.allgather(len(keys)), dtype=np.int64)
    total = int(counts.sum())
    targets = np.full(comm.size, total // comm.size, dtype=np.int64)
    targets[: total % comm.size] += 1
    # Global index range currently held by this rank.
    my_start = int(counts[: comm.rank].sum())
    # Destination rank of each global index.
    bounds = np.concatenate([[0], np.cumsum(targets)])
    gidx = my_start + np.arange(len(keys), dtype=np.int64)
    dest = np.searchsorted(bounds, gidx, side="right") - 1
    sends = [keys[dest == r] for r in range(comm.size)]
    recv = comm.alltoallv(sends)
    out_k = np.concatenate(recv)
    if payload is not None:
        sends_p = [payload[dest == r] for r in range(comm.size)]
        out_p = np.concatenate(comm.alltoallv(sends_p))
        return out_k, out_p
    return out_k
