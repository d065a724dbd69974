"""Symbolic/numeric split assembly: precomputed scatter plans per mesh.

The paper's Sec. II-D assembly strategy makes the elemental work pure batched
GEMM — but the *global* half of assembly (COO scatter, hanging-node
projection ``P^T A P``, duplicate summation) is topological: it depends only
on the mesh, not on the coefficient values.  The reference path
(:func:`repro.fem.assembly.assemble_matrix`) redoes all of it on every call,
i.e. for every operator of every Newton iteration of every timestep.

:class:`AssemblyPlan` splits that work once and for all per mesh:

* **symbolic phase** (``__init__``, once per mesh): expand
  every elemental COO entry through the rows of ``P`` touching it (a slot
  with no hanging node is its own single entry; only the others go through
  ``P``), sort the expanded entries once into the final CSR layout of
  ``A = P^T A_nodes P``, and
  store the expansion as one CSR scatter operator ``S`` of shape
  ``(nnz, n_elems * nc * nc)``: row = destination slot in ``csr.data``,
  column = source slot in the raveled ``Ke`` batch, value = interpolation
  weight ``P[r,a] * P[c,b]``.
* **numeric phase** (:meth:`AssemblyPlan.assemble`, every call): one CSR
  mat-vec ``S @ Ke.ravel()`` — no COO construction, no sparse matmul, no
  ``sum_duplicates``.  The returned matrices share the plan's ``indptr`` /
  ``indices`` arrays; only ``data`` is fresh per call.
* built lazily on first use (as ``assembly.symbolic`` time): the
  **load-vector scatter** (:meth:`AssemblyPlan.scatter_loads`, ``P^T`` folded
  into one CSR mat-vec), one **Dirichlet plan** per distinct mask
  (:meth:`AssemblyPlan.eliminate`: the ``data`` slots to zero and to set to
  one, so elimination is a copy that keeps the shared structure) and the
  **2x2 block layout** (:meth:`AssemblyPlan.block_2x2`: where each of four
  ``data`` vectors goes in the block matrix ``sp.bmat`` would build, so a
  coupled two-field Jacobian is one gather).

:func:`get_plan` keeps the plan in its mesh's ``memo``, so it lives exactly
as long as the mesh: an AMR remesh builds a new ``Mesh``, which builds its
own plan on first use.  A batch of another topology is refused by shape, and
:meth:`AssemblyPlan.eliminate` raises :class:`StaleAssemblyPlanError` on a
matrix the plan did not assemble.

The numeric phase is deterministic (each row of ``S`` keeps the stable
order of its expanded entries, summed onto ``+0.0``: the summation of the
``np.bincount`` scatter it replaced, bit for bit), so repeated ``assemble``
calls with the same ``Ke`` are bitwise identical; against the
reference path the result agrees to round-off (enforced at 1e-14 in
``tests/fem/test_assembly_plan.py``).
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .. import obs
from ..mesh.mesh import Mesh
from ..mesh.nodes import expand_ragged

class StaleAssemblyPlanError(RuntimeError):
    """An :class:`AssemblyPlan` was applied to a matrix it did not assemble."""


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """A square CSR matrix on a precomputed canonical layout (rows sorted,
    columns sorted within rows, duplicates summed).  The structure is
    assigned directly: the validating constructor copies index arrays
    (scipy >= 1.17), which would break both the zero-copy contract and the
    structure-sharing property the tests pin down."""
    n = len(indptr) - 1
    A = sp.csr_matrix((n, n), dtype=np.float64)
    A.data = data
    A.indices = indices
    A.indptr = indptr
    A.has_sorted_indices = True
    A.has_canonical_format = True
    return A


def _with_data(proto: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """``proto``'s structure (shared, with its canonical flags) around fresh
    ``data``: a shallow copy, a tenth of what even an empty ``csr_matrix``
    construction costs on the benchmark meshes."""
    A = copy.copy(proto)
    A.data = data
    return A


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
        self.n_dofs = int(mesh.n_dofs)
        en = mesh.nodes.elem_nodes
        n_elems, nc = en.shape
        self.ke_shape = (n_elems, nc, nc)

        # Node-wise COO pattern of the elemental scatter (reference path's
        # rows/cols), one entry per raveled Ke slot.
        rows = np.repeat(en, nc, axis=1).ravel()
        cols = np.tile(en, (1, nc)).ravel()

        # Expand each COO entry through the touching rows of P:
        #   A[a, b] += Ke_k * P[rows_k, a] * P[cols_k, b],
        # k-major, then row-P entries, then col-P entries.  A slot whose two
        # nodes each carry one P entry (neither hangs) expands to that one
        # entry, read from per-node tables; only the slots that touch a
        # hanging node go through the ragged expansions.  ``key`` is the
        # entry's (a, b) position in the final layout.
        P = mesh.nodes.P.tocsr()
        n = np.int64(self.n_dofs)
        nr = np.diff(P.indptr)
        cnt = nr[rows] * nr[cols]
        one = cnt == 1
        at_one = np.repeat(one, cnt)  # expanded entries of single slots
        first = P.indptr[:-1]
        col1, w1 = P.indices[first].astype(np.int64), P.data[first]
        r1, c1 = rows[one], cols[one]
        key = np.empty(len(at_one), dtype=np.int64)
        weight = np.empty(len(at_one), dtype=np.float64)
        src = np.empty(len(at_one), dtype=np.int64)
        key[at_one] = col1[r1] * n + col1[c1]
        weight[at_one] = w1[r1] * w1[c1]
        src[at_one] = np.flatnonzero(one)

        many = np.flatnonzero(~one)
        rm = rows[many]
        r_off, k1 = expand_ragged(P.indptr[rm], nr[rm])
        cm = cols[many[k1]]
        c_off, s1 = expand_ragged(P.indptr[cm], nr[cm])
        r_off = r_off[s1]
        at_many = ~at_one
        key[at_many] = P.indices[r_off].astype(np.int64) * n + P.indices[c_off]
        weight[at_many] = P.data[r_off] * P.data[c_off]
        src[at_many] = many[k1[s1]]  # raveled Ke slot feeding each entry

        # Final CSR layout: one stable sort by (a, b); each run of equal keys
        # is one data slot and keeps the expansion order.
        order = np.argsort(key, kind="stable")
        key = key[order]
        run_start = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=run_start[1:])
        head = np.flatnonzero(run_start)
        uniq = key[head]
        self.nnz = len(uniq)
        # The expansion as one CSR operator, row = data slot, column = Ke
        # slot: the numeric phase is ``S @ Ke.ravel()``.  Built directly, not
        # through COO, so each row keeps the stable expansion order (and no
        # duplicate is summed away).
        self._S = sp.csr_matrix(
            (
                weight[order],
                src[order],
                np.concatenate((head, [len(key)])),
            ),
            shape=(self.nnz, n_elems * nc * nc),
        )

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
        self._proto = _csr(proto.data, self.indices, self.indptr)

        # Lazily-built sub-plans: :meth:`scatter_loads` (from the node
        # table's ``P`` / ``elem_nodes``), one :meth:`eliminate` plan per
        # mask, the :meth:`block_2x2` layout.
        self._P, self._en = P, en
        self._scatter = None
        self._dirichlet: dict = {}
        self._block_2x2 = None

    # ------------------------------------------------------------- numeric

    def assemble(self, Ke: np.ndarray) -> sp.csr_matrix:
        """Numeric update: scatter a coefficient batch into the precomputed
        CSR layout.  ``Ke`` has shape ``(n_elems, nc, nc)``."""
        Ke = self._checked(Ke, self.ke_shape)
        with obs.span("assembly.numeric"):
            data = self._S @ Ke.ravel()
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
        """``data`` in the plan's CSR layout."""
        return _with_data(self._proto, data)

    def block_2x2(self, d11, d12, d21, d22) -> sp.csr_matrix:
        """``sp.bmat([[A11, A12], [A21, A22]], format="csr")`` of four
        matrices of this plan, given only their ``data`` vectors: one gather
        into a ``(2 n, 2 n)`` layout built on first use.  The layout is
        ``sp.bmat``'s, built from the plan's ``indptr`` / ``indices``: row
        ``r`` is A11's row ``r`` then A12's with its columns shifted by
        ``n``, row ``n + r`` the same of A21 and A22.  So the result is bit
        for bit ``sp.bmat`` of the four matrices."""
        if self._block_2x2 is None:
            with obs.span("assembly.symbolic"):
                nnz, n = self.nnz, self.n_dofs
                k = np.arange(nnz, dtype=np.int64)
                rows = self._slot_rows()
                left = k + self.indptr[rows]  # A11's slot k in the top half
                right = k + self.indptr[rows + 1]  # A12's slot k
                order = np.empty(4 * nnz, dtype=np.int64)
                order[left] = k
                order[right] = k + nnz
                order[2 * nnz:] = order[:2 * nnz] + 2 * nnz
                top = np.concatenate((self.indices, self.indices + n))
                indices = np.tile(top[order[:2 * nnz]], 2)
                indptr = np.concatenate(
                    (2 * self.indptr, 2 * nnz + 2 * self.indptr[1:])
                )
                proto = _csr(np.zeros(4 * nnz), indices, indptr)
                self._block_2x2 = (order, proto)
        order, proto = self._block_2x2
        data = np.concatenate([d11, d12, d21, d22])[order]
        return _with_data(proto, data)

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
                self._scatter = self._load_scatter()
        obs.incr("assembly.vector")
        return self._scatter @ be.reshape(-1, *be.shape[2:])

    def _load_scatter(self) -> sp.csr_matrix:
        """``P[elem_nodes.ravel()].T.tocsr()``, the CSR whose column ``j``
        is row ``elem_nodes.ravel()[j]`` of ``P``, built from the arrays by
        the two compiled kernels that expression runs, without its sparse
        objects in between."""
        P = self._P
        idx = P.indices.dtype
        slots = self._en.ravel().astype(idx)
        ptr = np.zeros(len(slots) + 1, dtype=idx)
        np.cumsum(np.diff(P.indptr)[slots], out=ptr[1:])
        nnz = int(ptr[-1])
        cols, vals = np.empty(nnz, dtype=idx), np.empty(nnz)
        # the P row of every element slot, slot-major
        _sparsetools.csr_row_index(
            len(slots), slots, P.indptr, P.indices, P.data, cols, vals
        )
        # grouped by DOF: a stable counting sort, slots ascending in a row
        indptr = np.empty(self.n_dofs + 1, dtype=idx)
        indices, data = np.empty(nnz, dtype=idx), np.empty(nnz)
        _sparsetools.csr_tocsc(
            len(slots), self.n_dofs, ptr, cols, vals, indptr, indices, data
        )
        S = sp.csr_matrix((data, indices, indptr),
                          shape=(self.n_dofs, len(slots)))
        S.has_sorted_indices = True
        return S

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


def get_plan(mesh: Mesh) -> AssemblyPlan:
    """The :class:`AssemblyPlan` of ``mesh``, built on first use and kept in
    ``mesh.memo`` (it holds no reference to the mesh, so it dies with it)."""
    plan = mesh.memo.get("plan")
    if plan is None:
        plan = mesh.memo["plan"] = AssemblyPlan(mesh)
    return plan


def plan_assemble(mesh: Mesh, Ke: np.ndarray) -> sp.csr_matrix:
    """Fast-path equivalent of :func:`repro.fem.assembly.assemble_matrix`:
    symbolic work once per mesh, numeric update per call."""
    return get_plan(mesh).assemble(Ke)
