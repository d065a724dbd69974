"""Hierarchical k-way communicator staging (paper Sec. II-C3a/b).

Distributed octree sort uses a staged k-way exchange: the process set is
recursively divided into at most ``k`` superpartitions per stage, giving
``O(log_k p)`` stages, splitter storage ``O(k)`` instead of ``O(p)``, and
Allreduce traffic ``O(k log_k p)``.  Splitting a communicator is expensive,
and the split arguments do not depend on the data, so the sequence of
sub-communicators is *memoized* on the root communicator (the paper uses an
MPI attribute cache) — later sorts reuse it without extra splits.
"""

from __future__ import annotations

from .comm import Comm


def kway_stage_comms(comm: Comm, k: int) -> list[tuple[Comm, int, int]]:
    """The memoized ladder of stage communicators for a k-way exchange.

    Returns a list of ``(stage_comm, group_index, ngroups)``: at each stage
    the current communicator's ranks are divided into ``ngroups <= k``
    contiguous blocks; ``group_index`` is this rank's block and
    ``stage_comm`` is the communicator *within* the block for the next stage.
    The ladder stops when the block fits within ``k`` ranks.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    cached = comm.get_attr(("kway_ladder", k, comm.rank))
    # Hit/miss is collectively consistent: the cache is only populated after
    # every rank of `comm` ran the full (collective) ladder build below.
    if cached is not None:
        return cached
    ladder: list[tuple[Comm, int, int]] = []
    cur = comm
    depth = 0
    while cur.size > k:
        ngroups = k  # k-way: k superpartitions per stage (cur.size > k here)
        # Contiguous blocks of near-equal size.
        base = cur.size // ngroups
        extra = cur.size % ngroups
        # Rank r belongs to the block found by inverting the block sizes.
        bounds = []
        acc = 0
        for g in range(ngroups):
            acc += base + (1 if g < extra else 0)
            bounds.append(acc)
        group = next(g for g, b in enumerate(bounds) if cur.rank < b)
        sub = cur.split_cached(group, cur.rank, cache_tag=("kway", k, depth))  # spmdlint: ignore[R1] -- every rank of `cur` sees the same cur.size, so the ladder descends in lockstep: all members reach this collective split on every iteration
        ladder.append((sub, group, ngroups))
        cur = sub
        depth += 1
    comm.set_attr(("kway_ladder", k, comm.rank), ladder)
    return ladder
