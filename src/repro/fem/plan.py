"""Symbolic/numeric split assembly: precomputed scatter plans per mesh.

The paper's Sec. II-D assembly strategy makes the elemental work pure batched
GEMM — but the *global* half of assembly (COO scatter, hanging-node
projection ``P^T A P``, duplicate summation) is topological: it depends only
on the mesh, not on the coefficient values.  The reference path
(:func:`repro.fem.assembly.assemble_matrix`) redoes all of it on every call,
i.e. for every operator of every Newton iteration of every timestep.

:class:`AssemblyPlan` splits that work once and for all per mesh:

* **symbolic phase** (``__init__``, once per mesh ``generation``): expand
  every elemental COO entry through the rows of ``P`` touching it, sort the
  expanded entries into the final CSR layout of ``A = P^T A_nodes P``, and
  record for each expanded entry its source slot in the raveled ``Ke`` batch,
  its interpolation weight ``P[r,a] * P[c,b]``, and its destination slot in
  ``csr.data``.
* **numeric phase** (:meth:`AssemblyPlan.assemble`, every call): one gather,
  one multiply, one ``bincount`` — no COO construction, no sparse matmul, no
  ``sum_duplicates``.  The returned matrices share the plan's ``indptr`` /
  ``indices`` arrays; only ``data`` is fresh per call.
* built lazily on first use (as ``assembly.symbolic`` time): the
  **load-vector scatter** (:meth:`AssemblyPlan.scatter_loads`, ``P^T`` folded
  into one CSR mat-vec) and one **Dirichlet plan** per distinct mask
  (:meth:`AssemblyPlan.eliminate`: the ``data`` slots to zero and to set to
  one, so elimination is a copy that keeps the shared structure).

Plans are keyed on :attr:`repro.mesh.mesh.Mesh.generation`.  AMR remeshes
build a new ``Mesh`` (new generation), so :func:`get_plan` transparently
rebuilds while a plan explicitly applied to a mesh of another generation
raises :class:`StaleAssemblyPlanError` — stale symbolic state can never
silently assemble against new topology.

The numeric phase is deterministic (fixed summation order), so repeated
``assemble`` calls with the same ``Ke`` are bitwise identical; against the
reference path the result agrees to round-off (enforced at 1e-14 in
``tests/fem/test_assembly_plan.py``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..mesh.mesh import Mesh

class StaleAssemblyPlanError(RuntimeError):
    """An :class:`AssemblyPlan` was applied to a mesh of another generation."""


def _expand_ragged(indptr: np.ndarray, sel: np.ndarray):
    """Flattened CSR-row expansion: for each ``k``, the data offsets of row
    ``sel[k]`` of a CSR matrix.  Returns ``(offsets, group)`` where ``group``
    maps each expanded slot back to its ``k``."""
    cnt = indptr[sel + 1] - indptr[sel]
    total = int(cnt.sum())
    group = np.repeat(np.arange(len(sel), dtype=np.int64), cnt)
    starts = np.repeat(indptr[sel], cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt
    )
    return starts + within, group


class AssemblyPlan:
    """One-time symbolic assembly for a fixed mesh; cheap numeric updates.

    ``assemble(Ke)`` is the drop-in fast path for
    ``assemble_matrix(mesh, Ke)``: same ``(n_dofs, n_dofs)`` CSR operator,
    any coefficient batch ``Ke`` of shape ``(n_elems, nc, nc)``.
    """

    def __init__(self, mesh: Mesh):
        with obs.span("assembly.symbolic"):
            self._build(mesh)
        obs.incr("assembly.symbolic")

    def _build(self, mesh: Mesh) -> None:
        self.generation = int(mesh.generation)
        self.n_dofs = int(mesh.n_dofs)
        en = mesh.nodes.elem_nodes
        n_elems, nc = en.shape
        self.ke_shape = (n_elems, nc, nc)

        # Node-wise COO pattern of the elemental scatter (reference path's
        # rows/cols), one entry per raveled Ke slot.
        rows = np.repeat(en, nc, axis=1).ravel()
        cols = np.tile(en, (1, nc)).ravel()

        # Expand each COO entry through the touching rows of P:
        #   A[a, b] += Ke_k * P[rows_k, a] * P[cols_k, b].
        P = mesh.nodes.P.tocsr()
        r_off, k1 = _expand_ragged(P.indptr, rows)  # over row-P entries
        c_off, s1 = _expand_ragged(P.indptr, cols[k1])  # then col-P entries
        a = P.indices[r_off[s1]].astype(np.int64)
        b = P.indices[c_off].astype(np.int64)
        weight = P.data[r_off[s1]] * P.data[c_off]
        src = k1[s1]  # raveled Ke slot feeding each expanded entry

        # Final CSR layout: sort expanded entries by (a, b), dedupe.
        key = a * np.int64(self.n_dofs) + b
        uniq, slot = np.unique(key, return_inverse=True)
        order = np.argsort(slot, kind="stable")  # locality of the scatter
        self._src = src[order]
        self._weight = weight[order]
        self._slot = slot[order]
        self.nnz = len(uniq)

        indices = (uniq % self.n_dofs).astype(np.int64)
        counts = np.bincount(
            (uniq // self.n_dofs).astype(np.int64), minlength=self.n_dofs
        )
        indptr = np.zeros(self.n_dofs + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Round-trip once through scipy so the shared index arrays already
        # carry the canonical dtype — later constructions then share them
        # by reference instead of copying.
        proto = sp.csr_matrix(
            (np.zeros(self.nnz), indices, indptr),
            shape=(self.n_dofs, self.n_dofs),
        )
        self.indices = proto.indices
        self.indptr = proto.indptr

        # Lazily-built sub-plans: :meth:`diagonal`, :meth:`scatter_loads`
        # (from the node table's ``P`` / ``elem_nodes``, kept until then),
        # one :meth:`eliminate` plan per mask.
        self._diag_plan = None
        self._P, self._en = P, en
        self._scatter = None
        self._dirichlet: dict = {}

    # ------------------------------------------------------------- numeric

    def check(self, mesh: Mesh) -> None:
        """Raise :class:`StaleAssemblyPlanError` unless ``mesh`` is the
        generation this plan was built for."""
        if int(mesh.generation) != self.generation:
            raise StaleAssemblyPlanError(
                f"AssemblyPlan built for mesh generation {self.generation} "
                f"applied to generation {int(mesh.generation)}; rebuild via "
                "repro.fem.plan.get_plan(mesh)"
            )

    def assemble(self, Ke: np.ndarray) -> sp.csr_matrix:
        """Numeric update: scatter a coefficient batch into the precomputed
        CSR layout.  ``Ke`` has shape ``(n_elems, nc, nc)``."""
        Ke = self._checked(Ke, self.ke_shape)
        with obs.span("assembly.numeric"):
            data = np.bincount(
                self._slot,
                weights=Ke.ravel()[self._src] * self._weight,
                minlength=self.nnz,
            )
        obs.incr("assembly.numeric")
        return self._matrix(data)

    @staticmethod
    def _checked(batch: np.ndarray, shape: tuple) -> np.ndarray:
        """The elemental batch as float64, refused unless it leads with
        ``shape``: a batch of another topology never reaches a scatter."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.shape[: len(shape)] != shape or batch.ndim > 3:
            raise ValueError(
                f"elemental batch shape {batch.shape} does not match plan "
                f"{shape}"
            )
        return batch

    def _matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """``data`` in the plan's CSR layout.  The precomputed structure is
        assigned directly: the validating constructor copies index arrays
        (scipy >= 1.17), which would break both the zero-copy contract and
        the structure-sharing property the tests pin down.  The layout is
        canonical by construction (rows sorted, columns sorted within rows,
        duplicates summed)."""
        A = sp.csr_matrix((self.n_dofs, self.n_dofs), dtype=np.float64)
        A.data = data
        A.indices = self.indices
        A.indptr = self.indptr
        A.has_sorted_indices = True
        A.has_canonical_format = True
        return A

    def _slot_rows(self) -> np.ndarray:
        """The row of every ``data`` slot of the plan's CSR layout."""
        return np.repeat(
            np.arange(self.n_dofs, dtype=np.int64), np.diff(self.indptr)
        )

    def scatter_loads(self, be: np.ndarray) -> np.ndarray:
        """Elemental loads ``(n_elems, nc[, k])`` -> DOF vector(s)
        ``(n_dofs[, k])``: :meth:`repro.mesh.mesh.Mesh.elem_scatter` as one
        CSR mat-vec with the hanging-node projection ``P^T`` folded in.  Each
        DOF sums its contributions in element-major order, so repeated calls
        are bitwise identical."""
        be = self._checked(be, self.ke_shape[:2])
        if self._scatter is None:
            with obs.span("assembly.symbolic"):
                # column j of S = row elem_nodes.ravel()[j] of P
                self._scatter = self._P[self._en.ravel()].T.tocsr()
                self._P = self._en = None  # a retired plan pins neither
        obs.incr("assembly.vector")
        return self._scatter @ be.reshape(-1, *be.shape[2:])

    def eliminate(self, A: sp.csr_matrix, mask: np.ndarray) -> sp.csr_matrix:
        """:func:`repro.fem.assembly.eliminate_dirichlet` for a matrix of
        this plan: a copy of ``A.data`` with the slots in a constrained row
        or column zeroed and the constrained diagonal set to one.  The zeros
        stay stored, so the result shares the plan's ``indptr`` / ``indices``
        and ``A_bc @ x`` adds ``0.0 * x_j`` where the compacted matrix adds
        nothing — the same bits for finite ``x``.  The slot lists are built
        once per distinct mask."""
        if A.indptr is not self.indptr or A.indices is not self.indices:
            raise StaleAssemblyPlanError(
                "eliminate() needs a matrix assembled by this plan (shared "
                "indptr / indices); use repro.fem.assembly."
                "eliminate_dirichlet for any other"
            )
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_dofs,):
            raise ValueError(
                f"mask shape {mask.shape} does not match plan ({self.n_dofs},)"
            )
        key = mask.tobytes()
        if key not in self._dirichlet:
            with obs.span("assembly.symbolic"):
                rows = self._slot_rows()
                hit = mask[rows] | mask[self.indices]
                self._dirichlet[key] = (
                    np.flatnonzero(hit),
                    np.flatnonzero(hit & (rows == self.indices)),
                )
        zero, diag = self._dirichlet[key]
        data = A.data.copy()
        data[zero] = 0.0
        data[diag] = 1.0
        obs.incr("assembly.dirichlet")
        return self._matrix(data)

    def assemble_for(self, mesh: Mesh, Ke: np.ndarray) -> sp.csr_matrix:
        """Generation-checked :meth:`assemble` (the safe entry point for
        callers holding both a plan and a mesh across remeshes)."""
        self.check(mesh)
        return self.assemble(Ke)

    def diagonal(self, Ke: np.ndarray) -> np.ndarray:
        """``assemble(Ke).diagonal()`` without assembling: scatter only the
        expanded entries whose destination sits on the CSR diagonal.

        The diagonal sub-plan preserves the full scatter's per-slot
        summation order (masking keeps relative entry order and bincount
        accumulates in ascending entry order), so the result is **bitwise**
        equal to the assembled diagonal — exact on hanging-node meshes,
        where the naive per-element ``Ke[:, i, i]`` scatter is not.
        """
        Ke = self._checked(Ke, self.ke_shape)
        if self._diag_plan is None:
            dest_row = self._slot_rows()[self._slot]
            on_diag = dest_row == self.indices[self._slot]
            self._diag_plan = (
                self._src[on_diag],
                self._weight[on_diag],
                dest_row[on_diag],
            )
        d_src, d_weight, d_row = self._diag_plan
        with obs.span("assembly.diagonal"):
            return np.bincount(
                d_row, weights=Ke.ravel()[d_src] * d_weight,
                minlength=self.n_dofs,
            )


# ------------------------------------------------------------------- cache

#: Most-recently-used plans, keyed on mesh generation.  Bounded so long AMR
#: runs do not pin retired topologies; plans hold no reference to the Mesh
#: (the node table's ``P`` / ``elem_nodes`` only until the scatter is built).
_PLAN_CACHE: "OrderedDict[int, AssemblyPlan]" = OrderedDict()
_PLAN_CACHE_MAX = 4


def get_plan(mesh: Mesh) -> AssemblyPlan:
    """The process-wide :class:`AssemblyPlan` for this mesh generation,
    building (and caching) it on first use."""
    key = int(mesh.generation)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = AssemblyPlan(mesh)
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    else:
        _PLAN_CACHE.move_to_end(key)
    return plan


def clear_plan_cache() -> None:
    """Drop all cached plans (tests / memory pressure)."""
    _PLAN_CACHE.clear()


def plan_assemble(mesh: Mesh, Ke: np.ndarray) -> sp.csr_matrix:
    """Fast-path equivalent of :func:`repro.fem.assembly.assemble_matrix`:
    symbolic work cached per mesh generation, numeric update per call."""
    return get_plan(mesh).assemble(Ke)
