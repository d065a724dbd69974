"""Distributed elemental kernels: ghost exchange, MATVEC, erosion/dilation.

Elements are SFC-partitioned into contiguous chunks; each rank owns the
nodes whose SFC-first touching element it owns (the standard octree FEM
ownership rule).  ``GhostRead`` pulls owned values of remote nodes needed by
local elements; ``GhostWrite`` pushes accumulated (ADD_VALUES) or assigned
(INSERT_VALUES) contributions back to owners.  Both ride the NBX sparse
exchange, and all traffic lands in the communicator's counters — these are
the measurements behind the Fig. 4 scaling reproduction.

All index arithmetic the exchanges need — positions of owned/ghost nodes in
the ``needed`` array, per-peer send/receive index maps, the global-node →
owned-position inverse — is precomputed once into an :class:`ExchangePlan`
at construction.  ``ghost_read``/``ghost_write`` are then pure fancy-indexed
gathers and scatters: no ``searchsorted`` and no per-node Python loop on the
per-MATVEC hot path.

The neighbor-discovery step (who needs which of my nodes) is set up with an
allgather at simulator scale; the production equivalent is the paper's
sorted outsourcing pattern whose communication fix (NBX vs raw Alltoall) is
implemented and benchmarked separately in :mod:`repro.mpi.sparse_exchange`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..mpi.comm import Comm
from ..mpi.sparse_exchange import nbx_exchange
from .mesh import Mesh


@dataclass
class ExchangePlan:
    """Precomputed ghost-exchange schedule for one ``DistributedField``.

    Built once per (mesh generation, communicator size, rank); every
    ``ghost_read``/``ghost_write`` reuses these index arrays.  Message *ids*
    still travel with the payloads (the NBX wire format is unchanged), but
    neither side recomputes any map per call.
    """

    generation: int  #: mesh generation this schedule was built against
    own_pos: np.ndarray  #: positions of `owned` within `needed`
    ghost_pos: np.ndarray  #: positions of `ghosts` within `needed`
    #: per-peer owned node ids the peer needs (GhostRead sends, sorted)
    send_ids: dict = field(default_factory=dict)
    #: per-peer positions of `send_ids[q]` within `owned`
    send_pos: dict = field(default_factory=dict)
    #: per-owner ghost node ids (GhostWrite sends, sorted within owner)
    ghost_ids_by_owner: dict = field(default_factory=dict)
    #: per-owner positions of those ghosts within `needed`
    ghost_pos_by_owner: dict = field(default_factory=dict)
    #: per-owner positions within `needed` of ids arriving in GhostRead
    recv_needed_pos: dict = field(default_factory=dict)
    #: inverse ownership map: global node id -> position in `owned` (or -1)
    owned_lookup: np.ndarray = None


class DistributedField:
    """Per-rank view of a node-centered field over a partitioned mesh."""

    def __init__(self, comm: Comm, mesh: Mesh):
        self.comm = comm
        self.mesh = mesh
        n_elems = mesh.n_elems
        bounds = np.linspace(0, n_elems, comm.size + 1).astype(np.int64)
        self.elem_lo = int(bounds[comm.rank])
        self.elem_hi = int(bounds[comm.rank + 1])
        en = mesh.nodes.elem_nodes
        self.local_elem_nodes = en[self.elem_lo : self.elem_hi]

        # Node ownership: rank of the first (SFC-smallest) touching element.
        first_elem = np.full(mesh.n_nodes, n_elems, dtype=np.int64)
        np.minimum.at(
            first_elem,
            en.ravel(),
            np.repeat(np.arange(n_elems), en.shape[1]),
        )
        self.node_owner = np.searchsorted(bounds, first_elem, side="right") - 1

        self.needed = np.unique(self.local_elem_nodes)
        self.owned = self.needed[self.node_owner[self.needed] == comm.rank]
        self.ghosts = self.needed[self.node_owner[self.needed] != comm.rank]
        self.local_conn = np.searchsorted(self.needed, self.local_elem_nodes)

        # Exchange maps (setup allgather; see module docstring).
        all_needed = comm.allgather(self.needed)
        self.send_map: dict[int, np.ndarray] = {}
        for q in range(comm.size):
            if q == comm.rank:
                continue
            theirs = all_needed[q]
            mine = theirs[self.node_owner[theirs] == comm.rank]
            if len(mine):
                self.send_map[q] = mine
        self.recv_from = sorted(
            {int(q) for q in np.unique(self.node_owner[self.ghosts])}
        )

        with obs.span("ghost.plan_build"):
            self.plan = self._build_exchange_plan()

    def _build_exchange_plan(self) -> ExchangePlan:
        """Symbolic phase of the ghost exchange: all per-call index maps."""
        plan = ExchangePlan(
            generation=int(self.mesh.generation),
            own_pos=np.searchsorted(self.needed, self.owned),
            ghost_pos=np.searchsorted(self.needed, self.ghosts),
        )
        # GhostRead send side: owned values each peer needs, and their
        # positions in the owned array.
        for q, ids in self.send_map.items():
            plan.send_ids[q] = ids
            plan.send_pos[q] = np.searchsorted(self.owned, ids)
        # GhostWrite send side: ghosts grouped by owner, ascending node id
        # within each owner (stable sort of the already-sorted ghost array —
        # the exact order the per-node loop used to produce, so the wire
        # bytes are unchanged).
        ghost_owner = self.node_owner[self.ghosts]
        order = np.argsort(ghost_owner, kind="stable")
        for q in np.unique(ghost_owner):
            sel = order[ghost_owner[order] == q]
            plan.ghost_ids_by_owner[int(q)] = self.ghosts[sel]
            plan.ghost_pos_by_owner[int(q)] = plan.ghost_pos[sel]
            # GhostRead receive side: owner q sends exactly these ghosts, in
            # this order (it filters its copy of our sorted `needed`).
            plan.recv_needed_pos[int(q)] = plan.ghost_pos[sel]
        # GhostWrite receive side: global node id -> position in `owned`,
        # valid for any masked subset a peer chooses to push.
        plan.owned_lookup = np.full(self.mesh.n_nodes, -1, dtype=np.int64)
        plan.owned_lookup[self.owned] = np.arange(len(self.owned))
        return plan

    # ------------------------------------------------------------- fields

    def from_global(self, node_values: np.ndarray) -> np.ndarray:
        """Owned-node slice of a (replicated) global node vector."""
        return node_values[self.owned].copy()

    def to_global(self, owned_values: np.ndarray) -> np.ndarray:
        """Allgather owned slices into the full global vector (diagnostics)."""
        pieces = self.comm.allgather((self.owned, owned_values))
        out = np.zeros(self.mesh.n_nodes)
        for ids, vals in pieces:
            out[ids] = vals
        return out

    # -------------------------------------------------------------- comms

    def ghost_read(self, owned_values: np.ndarray) -> np.ndarray:
        """Values over all `needed` nodes: owned locally, ghosts fetched."""
        plan = self.plan
        with obs.span("ghost.read"):
            obs.incr("ghost.reads")
            outgoing = {
                q: (ids, owned_values[plan.send_pos[q]])
                for q, ids in plan.send_ids.items()
            }
            incoming = nbx_exchange(self.comm, outgoing)
            full = np.zeros(len(self.needed))
            full[plan.own_pos] = owned_values
            for q, (_, vals) in incoming.items():
                full[plan.recv_needed_pos[q]] = vals
            return full

    def ghost_write(
        self,
        needed_values: np.ndarray,
        owned_values: np.ndarray,
        mode: str,
        push_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Push ghost contributions back to their owners.

        ``mode='add'``: accumulate into owners (MATVEC scatter).
        ``mode='insert'``: overwrite owners (erosion/dilation; concurrent
        identical inserts are consistent, the paper's remark).  For inserts
        ``push_mask`` (over `needed`) must mark the nodes actually written —
        unwritten ghosts carry stale reads and must not travel."""
        plan = self.plan
        with obs.span("ghost.write"):
            obs.incr("ghost.writes")
            outgoing = {}
            for q, pos in plan.ghost_pos_by_owner.items():
                ids = plan.ghost_ids_by_owner[q]
                if push_mask is not None:
                    sel = push_mask[pos]
                    if not np.any(sel):
                        continue
                    ids, pos = ids[sel], pos[sel]
                outgoing[q] = (ids, needed_values[pos])
            incoming = nbx_exchange(self.comm, outgoing)
            out = owned_values.copy()
            # Sorted peer order: NBX delivery order is schedule-dependent,
            # and float accumulation does not commute bitwise — fixing the
            # reduction order makes results identical across backends.
            for q in sorted(incoming):
                ids, vals = incoming[q]
                pos = plan.owned_lookup[ids]
                if mode == "add":
                    np.add.at(out, pos, vals)
                else:
                    out[pos] = vals
            return out

    # ------------------------------------------------------------ kernels

    def matvec(self, Ke: np.ndarray, owned_values: np.ndarray) -> np.ndarray:
        """Distributed elemental MATVEC: GhostRead -> local pass -> GhostWrite.

        ``Ke``: elemental matrices for the *local* element chunk; the local
        pass is :func:`repro.fem.matvec.elemental_pass` over ``local_conn``.
        """
        from ..fem.matvec import elemental_pass

        acc = elemental_pass(Ke, self.local_conn, self.ghost_read(owned_values))
        return self.ghost_write(acc, acc[self.plan.own_pos], mode="add")

    def matvec_matrix_free(
        self, owned_values: np.ndarray, coeff=1.0
    ) -> np.ndarray:
        """Matrix-free reference MATVEC: re-assemble each elemental
        stiffness on the fly inside an explicit per-element loop, the way
        the paper's production kernel trades FLOPs for memory.

        This is numerically identical to precomputing the ``Ke`` batch and
        calling :meth:`matvec` (same accumulation order — pinned bitwise in
        ``tests/mesh/test_distributed.py``), so it doubles as the
        validation reference for the batched GEMM path.  Unlike the batched
        path, the per-element work runs in the interpreter — compute-dense
        ranks like these are what backend scaling studies must exercise,
        since a fully vectorized kernel spends microseconds per rank and
        measures only transport overhead.
        """
        from ..fem.operators import stiffness_matrix

        nv = self.ghost_read(owned_values)
        h = self.mesh.elem_h()[self.elem_lo : self.elem_hi]
        dim = self.mesh.dim
        acc = np.zeros(len(self.needed))
        for conn, he in zip(self.local_conn, h):
            Ke = stiffness_matrix(he[None], dim, coeff)[0]
            acc[conn] += Ke @ nv[conn]
        return self.ghost_write(acc, acc[self.plan.own_pos], mode="add")

    def erode_dilate_step(
        self,
        owned_values: np.ndarray,
        val: float,
        wait: np.ndarray,
        counters: np.ndarray,
        tol: float = 1e-9,
    ) -> np.ndarray:
        """One distributed level-aware erosion/dilation sweep (Algorithm 2).

        ``wait``/``counters`` are per-local-element arrays maintained by the
        caller across sweeps.
        """
        nv = self.ghost_read(owned_values)
        ev = nv[self.local_conn]
        nc = ev.shape[1]
        has_if = np.abs(np.abs(ev.sum(axis=1)) - nc) > tol
        trigger = has_if & (counters >= wait)
        counters[has_if & ~trigger] += 1
        counters[trigger] = 0
        new_nv = nv.copy()
        written = np.zeros(len(self.needed), dtype=bool)
        if np.any(trigger):
            idx = self.local_conn[trigger].ravel()
            new_nv[idx] = val
            written[idx] = True
        owned_new = new_nv[self.plan.own_pos]
        return self.ghost_write(new_nv, owned_new, mode="insert", push_mask=written)
