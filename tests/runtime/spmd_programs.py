"""The cross-backend equivalence-suite SPMD programs, as module-level
functions, and the inputs each one is run on.

Lifted out of ``test_backends.py`` closures so that the process backend can
pickle them and ``tests/analysis/test_runtime_checkers.py`` can run the exact
programs the equivalence suite executes under ``REPRO_SPMD_CHECK``.  Inputs
are passed as ``run_spmd`` args (never captured), keeping every program a
pure function of ``(comm, data)``.

Besides the substrate itself (p2p, collectives, NBX, sorts, split), one
program per SPMD entry point of ``src/``: ``par_coarsen``, ``par_balance``,
``repartition``, the ``ExchangePlan`` ghost read / write with
``DistributedField.matvec``, and ``par_transfer_node_centered``.
"""

import numpy as np

from repro.fem.operators import mass_matrix, stiffness_matrix
from repro.mesh.distributed import DistributedField
from repro.mesh.intergrid import par_transfer_node_centered
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.mpi.sort import is_globally_sorted, kway_sort, sample_sort
from repro.mpi.sparse_exchange import dense_exchange, nbx_exchange
from repro.octree.build import uniform_tree
from repro.octree.parbalance import par_balance
from repro.octree.parcoarsen import par_coarsen
from repro.octree.partition import partition_endpoints, repartition, scatter_tree
from repro.octree.refine import refine
from repro.octree.tree import Octree


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
        "max": comm.allreduce(float(v[0]), max),
        "allgather": comm.allgather(comm.rank * 2),
        "exscan": comm.exscan(comm.rank + 1),
        "alltoall": comm.alltoall([comm.rank * 10 + d for d in range(comm.size)]),
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


def par_coarsen_program(comm, parts, votes):
    """Algorithm 7 on a pre-partitioned tree with per-leaf votes."""
    out = par_coarsen(comm, parts[comm.rank], votes[comm.rank])
    return out.anchors, out.levels


def par_balance_program(comm, parts):
    """Distributed 2:1 balance of a tree with spikes across chunk ends."""
    out = par_balance(comm, parts[comm.rank])
    return out.anchors, out.levels


def repartition_program(comm, parts, weights, payloads):
    """Weighted repartition of a skewed partition, payload carried along."""
    out, payload = repartition(
        comm, parts[comm.rank], weights[comm.rank], payloads[comm.rank]
    )
    return out.anchors, out.levels, payload


def ghost_exchange_program(comm, mesh, Ke, u, insert_mask):
    """``ExchangePlan`` ghost read, masked ghost-write insert, then the
    distributed MATVEC (ghost read -> elemental pass -> ghost-write add)."""
    df = DistributedField(comm, mesh)
    owned = df.from_global(u)
    full = df.ghost_read(owned)
    written = insert_mask[df.needed]
    inserted = full.copy()
    inserted[written] = 7.5
    after_insert = df.ghost_write(inserted, owned, mode="insert", push_mask=written)
    y = df.matvec(Ke[df.elem_lo : df.elem_hi], owned)
    return full, after_insert, df.to_global(y)


def par_transfer_program(comm, old_parts, old_corner_vals, new_parts):
    """Node-centered transfer between two differently partitioned grids."""
    r = comm.rank
    return par_transfer_node_centered(
        comm,
        old_parts[r],
        old_corner_vals[r],
        Mesh(new_parts[r], check_balance=False),
        partition_endpoints(comm, old_parts[r]),
        partition_endpoints(comm, new_parts[r]),
    )


#: name -> (program, nranks) for the cross-backend and runtime-checker sweeps.
EQUIVALENCE_PROGRAMS = {
    "tests.p2p_ring": (p2p_ring_program, 4),
    "tests.collectives_battery": (collectives_battery_program, 4),
    "tests.nbx_dense_exchange": (nbx_dense_program, 5),
    "tests.distributed_sort": (distributed_sort_program, 8),
    "tests.split_subcomm_traffic": (split_subcomm_program, 6),
    "tests.par_coarsen": (par_coarsen_program, 3),
    "tests.par_balance": (par_balance_program, 3),
    "tests.repartition": (repartition_program, 4),
    "tests.ghost_exchange_matvec": (ghost_exchange_program, 3),
    "tests.par_transfer": (par_transfer_program, 3),
}

#: The programs for ``src/`` SPMD entry points outside ``repro.mpi``.
ENTRY_POINT_PROGRAMS = [
    "tests.par_coarsen",
    "tests.par_balance",
    "tests.repartition",
    "tests.ghost_exchange_matvec",
    "tests.par_transfer",
]


def _chunks(values, nranks):
    bounds = np.linspace(0, len(values), nranks + 1).astype(np.int64)
    return [values[bounds[r] : bounds[r + 1]] for r in range(nranks)]


def _circle_mesh(max_level):
    # Adaptive: hanging nodes make ownership and ghost layout irregular.
    def phi(x):
        return np.linalg.norm(x - 0.5, axis=1) - 0.3

    return mesh_from_field(phi, 2, max_level=max_level, min_level=2, threshold=0.05)


def program_args(name, nranks, seed=0):
    """Small ``run_spmd`` args for program ``name``, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "tests.p2p_ring":
        return (
            {
                (s, d): rng.standard_normal(int(rng.integers(1, 200)))
                for s in range(nranks)
                for d in range(nranks)
                if s != d
            },
        )
    if name == "tests.collectives_battery":
        return ([rng.standard_normal(8) for _ in range(nranks)],)
    if name == "tests.nbx_dense_exchange":
        return (
            [
                {
                    int(d): rng.standard_normal(int(rng.integers(1, 100)))
                    for d in rng.choice(
                        nranks, size=int(rng.integers(0, nranks)), replace=False
                    )
                }
                for _ in range(nranks)
            ],
        )
    if name == "tests.distributed_sort":
        data = [
            rng.integers(0, 2**60, 200).astype(np.uint64)
            for _ in range(nranks)
        ]
        return (data, "kway", 2)
    if name == "tests.split_subcomm_traffic":
        return ()
    if name == "tests.par_coarsen":
        t = uniform_tree(2, 2)
        t = refine(t, t.levels + rng.integers(0, 3, len(t)))
        votes = np.maximum(t.levels - rng.integers(0, 4, len(t)), 0)
        return (scatter_tree(t, nranks), _chunks(votes, nranks))
    if name == "tests.par_balance":
        t = uniform_tree(2, 2)
        targets = t.levels.copy()
        targets[rng.choice(len(t), size=3, replace=False)] = 5
        return (scatter_tree(refine(t, targets), nranks),)
    if name == "tests.repartition":
        t = uniform_tree(2, 3)
        # Skewed: rank 0 holds half the leaves, the rest share the other half.
        parts = [Octree(t.anchors[:32], t.levels[:32], 2, presorted=True)]
        tail = Octree(t.anchors[32:], t.levels[32:], 2, presorted=True)
        parts += scatter_tree(tail, nranks - 1)
        weights = [rng.uniform(0.5, 4.0, len(p)) for p in parts]
        payloads = [np.arange(len(p)) + 100 * r for r, p in enumerate(parts)]
        return (parts, weights, payloads)
    if name == "tests.ghost_exchange_matvec":
        mesh = _circle_mesh(4)
        Ke = stiffness_matrix(mesh.elem_h(), 2) + mass_matrix(mesh.elem_h(), 2)
        u = rng.standard_normal(mesh.n_nodes)
        return (mesh, Ke, u, rng.random(mesh.n_nodes) < 0.4)
    if name == "tests.par_transfer":
        old = _circle_mesh(4)
        new = Mesh.from_tree(uniform_tree(2, 3))
        u = old.interpolate(lambda x: np.sin(4 * x[:, 0]) * x[:, 1] + 1)
        return (
            scatter_tree(old.tree, nranks),
            _chunks(old.elem_gather(u), nranks),
            scatter_tree(new.tree, nranks),
        )
    raise AssertionError(f"no args builder for {name}")
