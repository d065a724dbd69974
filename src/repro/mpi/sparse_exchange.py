"""Dynamic sparse data exchange.

The paper (Sec. II-C3c) replaced a raw ``MPI_Alltoall`` used to route nodes
back to their originating processes with the NBX algorithm of Hoefler,
Siebert & Lumsdaine ("Scalable communication protocols for dynamic sparse
data exchange", PPoPP 2010), eliminating the Omega(p) collective that blew up
15x between 28K and 56K cores.

Both the dense baseline and NBX are implemented here so the benchmark
(`benchmarks/bench_nbx_vs_alltoall.py`) can compare their communication
volumes directly.
"""

from __future__ import annotations

from typing import Any, Mapping

from .comm import ANY_SOURCE, Comm

_NBX_TAG = 7_771


def dense_exchange(comm: Comm, outgoing: Mapping[int, Any]) -> dict[int, Any]:
    """Baseline: obtain receive counts with a dense all-to-all, then exchange.

    Models the paper's original implementation: every rank contributes a
    length-``p`` count vector regardless of how sparse the pattern is.
    """
    counts = [1 if dest in outgoing else 0 for dest in range(comm.size)]
    recv_counts = comm.alltoall(counts)
    # Sorted so message issue order is rank-deterministic: callers build
    # `outgoing` in discovery order, which can differ run to run, and
    # matched receives below key on the source rank.
    for dest, payload in sorted(outgoing.items()):
        comm.send(payload, dest, tag=_NBX_TAG)
    received: dict[int, Any] = {}
    for src, cnt in enumerate(recv_counts):
        for _ in range(cnt):
            received[src] = comm.recv(src, tag=_NBX_TAG)
    return received


def nbx_exchange(comm: Comm, outgoing: Mapping[int, Any]) -> dict[int, Any]:
    """NBX: non-blocking consensus sparse exchange.

    Each rank sends its messages, then enters a non-blocking barrier once its
    sends are done; it keeps receiving until the barrier completes, at which
    point every message in flight has been delivered.  No Omega(p) primitive
    is involved — communication is proportional to the actual sparsity.
    """
    # Epoch separation: successive NBX calls are collective and in lockstep,
    # so a per-comm call counter gives every call a distinct tag and ibarrier
    # key; without this, a fast rank's next exchange would bleed into a slow
    # rank's current drain loop.
    comm._nbx_seq = getattr(comm, "_nbx_seq", 0) + 1
    key = ("nbx", comm._nbx_seq)
    tag = _NBX_TAG + comm._nbx_seq
    # Sorted for deterministic issue order, like dense_exchange.
    for dest, payload in sorted(outgoing.items()):
        comm.send(payload, dest, tag=tag)
    # In real NBX the barrier is entered after local sends complete
    # (synchronous sends confirm delivery); our in-process transport delivers
    # eagerly, so sends are complete here by construction.
    bar = comm.ibarrier(key=key)
    received: dict[int, Any] = {}
    # Blocks until a message is pending or the barrier has completed here;
    # at completion every message sent to this rank has arrived.
    while (status := comm.probe_until(bar, ANY_SOURCE, tag)) is not None:
        src, _ = status
        received[src] = comm.recv(src, tag=tag)
    return received
