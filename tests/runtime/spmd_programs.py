"""The cross-backend equivalence-suite SPMD programs, as module-level
functions.

Lifted out of ``test_backends.py`` closures so that the process backend can
pickle them and ``tests/analysis/test_runtime_checkers.py`` can run the exact
programs the equivalence suite executes under ``REPRO_SPMD_CHECK``.  Inputs
are passed as ``run_spmd`` args (never captured), keeping every program a
pure function of ``(comm, data)``.
"""

import numpy as np

from repro.mpi.comm import MAX
from repro.mpi.sort import is_globally_sorted, kway_sort, sample_sort
from repro.mpi.sparse_exchange import dense_exchange, nbx_exchange


def p2p_ring_program(comm, payloads):
    """All-pairs p2p: send to every peer (tag = dest), receive from every
    peer (tag = my rank), accumulate payload sums in source order."""
    for d in range(comm.size):
        if d != comm.rank:
            comm.send(payloads[(comm.rank, d)], d, tag=d)
    acc = 0.0
    for s in range(comm.size):
        if s != comm.rank:
            acc += float(comm.recv(source=s, tag=comm.rank).sum())
    return acc


def collectives_battery_program(comm, vecs):
    """One of every blocking collective, fixed roots, then a barrier."""
    v = vecs[comm.rank]
    out = {
        "allreduce": comm.allreduce(v),
        "max": comm.allreduce(float(v[0]), MAX),
        "bcast": comm.bcast(v if comm.rank == 2 else None, root=2),
        "gather": comm.gather(float(v.sum()), root=1),
        "allgather": comm.allgather(comm.rank * 2),
        "scatter": comm.scatter(
            list(range(comm.size)) if comm.rank == 0 else None
        ),
        "scan": comm.scan(comm.rank + 1),
        "exscan": comm.exscan(comm.rank + 1),
        "alltoallv": comm.alltoallv(
            [np.arange(d + 1, dtype=np.int64) for d in range(comm.size)]
        ),
    }
    comm.barrier()
    return out


def nbx_dense_program(comm, outgoing):
    """NBX sparse exchange, then the dense reference, same sparsity."""
    got_nbx = nbx_exchange(comm, outgoing[comm.rank])
    comm.barrier()
    got_dense = dense_exchange(comm, outgoing[comm.rank])
    same = sorted(got_nbx) == sorted(got_dense)
    assert same
    return {s: got_nbx[s].sum() for s in sorted(got_nbx)}


def distributed_sort_program(comm, data, sorter, k):
    """Distributed sort (``sorter`` in {"sample", "kway"}) + global check.

    The sorter choice is a uniform argument: every rank receives the same
    value, so the branch is collective-consistent by construction.
    """
    if sorter == "kway":
        out = kway_sort(comm, data[comm.rank], k=k)
    else:
        out = sample_sort(comm, data[comm.rank])
    ok = is_globally_sorted(comm, out)
    assert ok
    return out


def split_subcomm_program(comm):
    """Split into parity groups; collective + p2p ring inside each group."""
    sub = comm.split(comm.rank % 2)
    tot = sub.allreduce(comm.rank)
    sub.send(np.full(4, comm.rank), (sub.rank + 1) % sub.size, tag=3)
    got = sub.recv(tag=3)
    return (sub.size, tot, int(got[0]))


#: name -> (program, nranks) for the cross-backend and runtime-checker sweeps.
EQUIVALENCE_PROGRAMS = {
    "tests.p2p_ring": (p2p_ring_program, 4),
    "tests.collectives_battery": (collectives_battery_program, 4),
    "tests.nbx_dense_exchange": (nbx_dense_program, 5),
    "tests.distributed_sort": (distributed_sort_program, 8),
    "tests.split_subcomm_traffic": (split_subcomm_program, 6),
}
