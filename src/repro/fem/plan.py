"""Symbolic/numeric split assembly: precomputed scatter plans per mesh.

The paper's Sec. II-D assembly strategy makes the elemental work pure batched
GEMM — but the *global* half of assembly (COO scatter, hanging-node
projection ``P^T A P``, duplicate summation) is topological: it depends only
on the mesh, not on the coefficient values.  The reference path the tests
keep (``assemble_matrix`` in ``tests/oracles.py``) redoes all of it on every
call, i.e. for every operator of every Newton iteration of every timestep.

:class:`AssemblyPlan` splits that work once and for all per mesh:

* **symbolic phase** (``__init__``, once per mesh): a ``Ke`` slot whose
  two nodes carry DOFs is one entry, placed by the element->DOF table
  (``dof_of_node[elem_nodes]``) with weight 1.0; only the slots that touch
  a hanging node expand through the rows of ``P``.  One sort of the int64
  key ``(a n + b) << bits | slot`` (``bits`` for the slot numbers) puts
  the entries into the final CSR layout of ``A = P^T A_nodes P``; a key
  range past ``2**63`` is sorted in blocks of places, which no mesh below
  some 7e5 elements (2D) or 5e5 (3D) needs.  The result is one CSR scatter
  operator ``S`` of shape
  ``(nnz, n_elems * nc * nc)``: row = destination slot in ``csr.data``,
  column = source slot in the raveled ``Ke`` batch, value = interpolation
  weight ``P[r,a] * P[c,b]``, assigned with the plan's layout on the
  sorted arrays (no validating constructor).
* **numeric phase** (:meth:`AssemblyPlan.assemble`, every call): one CSR
  mat-vec ``S @ Ke.ravel()`` — no COO construction, no sparse matmul, no
  ``sum_duplicates``.  The returned matrices share the plan's ``indptr`` /
  ``indices`` arrays; only ``data`` is fresh per call.
* built lazily on first use (as ``assembly.symbolic`` time): the
  **load-vector scatter** (:meth:`AssemblyPlan.scatter_loads`, ``P^T`` folded
  into one CSR mat-vec), one **Dirichlet layout** per distinct mask (the
  couplings elimination keeps, in a compact CSR without stored zeros, and
  the free-row / constrained-column couplings the boundary data is lifted
  through, so :meth:`AssemblyPlan.eliminate` is one gather and
  :meth:`AssemblyPlan.lift` touches only the boundary couplings) and the
  **2x2 block layout** (:meth:`AssemblyPlan.block_2x2`: where each of four
  ``data`` vectors goes in the block matrix ``sp.bmat`` would build, so a
  coupled two-field Jacobian is one gather).

:func:`get_plan` keeps the plan in its mesh's ``memo``, so it lives exactly
as long as the mesh: an AMR remesh builds a new ``Mesh``, which builds its
own plan on first use.  A batch of another topology is refused by shape, and
:meth:`AssemblyPlan.eliminate` / :meth:`AssemblyPlan.lift` raise
:class:`StaleAssemblyPlanError` on a matrix the plan did not assemble.

The numeric phase is deterministic (each row of ``S`` keeps the stable
order of its expanded entries, summed onto ``+0.0``: the summation of the
``np.bincount`` scatter it replaced, bit for bit), so repeated ``assemble``
calls with the same ``Ke`` are bitwise identical; against the
reference path the result agrees to round-off (enforced at 1e-14 in
``tests/fem/test_assembly_plan.py``).  Every caller assembles through
:func:`get_plan`: ``get_plan(mesh).assemble(Ke)`` /
``get_plan(mesh).scatter_loads(be)``.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools, get_index_dtype

from .. import obs
from ..mesh.mesh import Mesh
from ..mesh.nodes import expand_ragged

class StaleAssemblyPlanError(RuntimeError):
    """An :class:`AssemblyPlan` was applied to a matrix it did not assemble."""


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
         n_cols: int | None = None):
    """A CSR matrix on a precomputed canonical layout (rows sorted, columns
    sorted within rows, duplicates summed), square unless ``n_cols`` is
    given.  The structure is assigned directly: the validating constructor
    copies index arrays (scipy >= 1.17), which would break both the
    zero-copy contract and the structure-sharing property the tests pin
    down."""
    n = len(indptr) - 1
    A = sp.csr_matrix((n, n if n_cols is None else n_cols), dtype=np.float64)
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


def _sort_pairs(pos: np.ndarray, src: np.ndarray, bits: int, n_pos: int) -> None:
    """Sort distinct pairs ``0 <= pos < n_pos``, ``0 <= src < 2**bits`` in
    place into the order of ``np.lexsort((src, pos))``: one ``np.sort`` of
    the int64 key ``pos << bits | src``.  The key fits while ``pos`` spans
    ``2**(63 - bits)`` places, so larger ranges go in blocks of that many
    places, each sorted the same way.  For the plan's entries that is one
    block up to some 7e5 elements in 2D and 5e5 in 3D."""
    span = 63 - bits
    n_blocks = ((n_pos - 1) >> span) + 1
    if n_blocks > 1:
        block = pos >> span
        by_block = np.argsort(block, kind="stable")
        pos[:], src[:] = pos[by_block], src[by_block]
        ends = np.cumsum(np.bincount(block, minlength=n_blocks))
    else:
        ends = [len(pos)]
    lo = 0
    for b, hi in enumerate(ends):
        base = b << span
        key = pos[lo:hi] - base
        key <<= bits
        key |= src[lo:hi]
        key.sort()
        np.bitwise_and(key, (1 << bits) - 1, out=src[lo:hi], casting="unsafe")
        key >>= bits
        np.add(key, base, out=pos[lo:hi])
        lo = hi


class AssemblyPlan:
    """One-time symbolic assembly for a fixed mesh; cheap numeric updates.

    ``assemble(Ke)`` gives the operator of the reference
    ``assemble_matrix(mesh, Ke)`` (``tests/oracles.py``): the same
    ``(n_dofs, n_dofs)`` CSR operator, for any coefficient batch ``Ke`` of
    shape ``(n_elems, nc, nc)``.
    """

    def __init__(self, mesh: Mesh):
        with obs.span("assembly.symbolic"):
            self._build(mesh)
        obs.incr("assembly.symbolic")

    def _build(self, mesh: Mesh) -> None:
        nodes = mesh.nodes
        n = self.n_dofs = int(mesh.n_dofs)
        en = nodes.elem_nodes
        n_elems, nc = en.shape
        self.ke_shape = (n_elems, nc, nc)
        n_slots = n_elems * nc * nc
        P = nodes.P.tocsr()

        # Ke slot s = (e nc + i) nc + j adds Ke_s P[en[e,i], a] P[en[e,j], b]
        # to A[a, b]; an entry is a (pos, src) pair, pos = a n + b its place
        # in the final layout, src its Ke slot.  A node that carries a DOF
        # has the one P entry (its DOF, 1.0), so a slot whose two nodes do
        # is one entry, read from the element->DOF table, of weight 1.0.
        # Only the slots that touch a hanging node expand through P's rows
        # (row-P entries, then col-P entries, slot by slot).
        dof = nodes.dof_of_node[en]
        hang = nodes.is_hanging[en]
        he = np.flatnonzero(hang.any(axis=1))
        k, i, j = np.nonzero(hang[he, :, None] | hang[he, None, :])
        e = he[k]
        h_slots = (e * nc + i) * nc + j  # ascending
        nr = np.diff(P.indptr)
        rn, cn = en[e, i], en[e, j]
        r_off, k1 = expand_ragged(P.indptr[rn], nr[rn])
        cn = cn[k1]
        c_off, s1 = expand_ragged(P.indptr[cn], nr[cn])
        r_off = r_off[s1]
        h_pos = P.indices[r_off].astype(np.int64) * n
        h_pos += P.indices[c_off]
        h_weight = P.data[r_off] * P.data[c_off]
        n_entries = n_slots - len(h_slots) + len(h_pos)
        # S's index dtype: the one scipy's validating constructor picks
        s_idx = get_index_dtype(maxval=max(n_slots, n_entries))

        pos = np.empty(n_slots + len(h_pos), dtype=np.int64)
        np.add((dof * n)[:, :, None], dof[:, None, :],
               out=pos[:n_slots].reshape(self.ke_shape))
        pos[h_slots] = n * n  # past every real place: sorted last, cut
        pos[n_slots:] = h_pos
        src = np.empty(len(pos), dtype=s_idx)
        src[:n_slots] = np.arange(n_slots, dtype=s_idx)
        src[n_slots:] = h_slots[k1[s1]]
        del dof, r_off, c_off, k1, s1

        # One sort puts every entry in (pos, src) order: the order a stable
        # sort of pos over the slot-major expansion gives.
        _sort_pairs(pos, src, (n_slots - 1).bit_length(), n * n + 1)
        pos, src = pos[:n_entries], src[:n_entries]

        # Weights: 1.0 but where a hanging slot feeds the entry.  Those
        # entries keep their (pos, src) order among themselves, which is
        # their (pos, expansion index) order: the expansion is slot-major.
        data = np.ones(n_entries)
        touches = np.zeros(n_slots, dtype=bool)
        touches[h_slots] = True
        h_order = np.arange(len(h_pos))
        _sort_pairs(h_pos, h_order, (len(h_pos) - 1).bit_length(), n * n)
        data[np.flatnonzero(touches[src])] = h_weight[h_order]

        # Each run of equal pos is one data slot: a row of the CSR scatter
        # operator S (row = data slot, column = Ke slot), so the numeric
        # phase is ``S @ Ke.ravel()``.
        run = np.empty(n_entries, dtype=bool)
        run[0] = True
        np.not_equal(pos[1:], pos[:-1], out=run[1:])
        head = np.flatnonzero(run)
        uniq = pos[head]
        self.nnz = len(uniq)
        S_indptr = np.empty(self.nnz + 1, dtype=s_idx)
        S_indptr[:-1] = head
        S_indptr[-1] = n_entries
        self._S = _csr(data, src, S_indptr, n_slots)

        row = uniq // n
        idx = get_index_dtype(maxval=max(n, self.nnz))
        self.indices = (uniq - row * n).astype(idx)
        self.indptr = np.searchsorted(row, np.arange(n + 1)).astype(idx)
        self._proto = _csr(np.zeros(self.nnz), self.indices, self.indptr)

        # Lazily-built sub-plans: :meth:`scatter_loads` (from the node
        # table's ``P`` / ``elem_nodes``), one Dirichlet layout per mask,
        # the :meth:`block_2x2` layout.
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
        """The row of every ``data`` slot of the plan's CSR layout, in the
        plan's index dtype."""
        return np.repeat(
            np.arange(self.n_dofs, dtype=self.indptr.dtype),
            np.diff(self.indptr),
        )

    def scatter_loads(self, be: np.ndarray) -> np.ndarray:
        """Elemental loads ``(n_elems, nc[, k])`` -> DOF vector(s)
        ``(n_dofs[, k])``: the ``np.add.at`` scatter ``elem_scatter`` of
        ``tests/oracles.py`` as one CSR mat-vec with the hanging-node
        projection ``P^T`` folded in.  Each
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
        """Dirichlet elimination (``eliminate_dirichlet`` in
        ``tests/oracles.py``) for a matrix of this plan: one gather of the couplings elimination keeps into the
        mask's compact CSR layout, then a unit diagonal on the constrained
        rows.  No eliminated coupling stays as a stored zero: SuperLU
        orders and factors every stored entry as structure and every
        mat-vec walks it (on ``bubble3d``'s NS matrix, 6,476 of the plan's
        12,185 entries; without them a float32 factorization and an LU
        solve take about half the time, DESIGN.md section 10).  A coupling
        that is zero by value (the 3D stiffness has some) is kept: the
        layout is the pattern's."""
        layout = self._layout(A, mask)
        data = A.data[layout.keep]
        data[layout.diag] = 1.0
        obs.incr("assembly.dirichlet")
        A_bc = _with_data(self._proto, data)
        A_bc.indices, A_bc.indptr = layout.indices, layout.indptr
        return A_bc

    def lift(self, A: sp.csr_matrix, b: np.ndarray, mask: np.ndarray,
             values=None) -> np.ndarray:
        """Dirichlet lifting (``lift_dirichlet`` in ``tests/oracles.py``)
        for a matrix of this plan, bit for bit: ``b - A[:, B] g_B`` through the couplings of the
        free rows to the constrained columns ``B`` alone, then ``g_B`` on
        the constrained rows.  Zero boundary data (no-slip) applies
        nothing.  ``values`` is ``None`` (zero), a scalar, a value per
        constrained DOF or a full-length vector, as there."""
        layout = self._layout(A, mask)
        mask, n = layout.mask, self.n_dofs
        b_bc = np.array(b, dtype=np.float64)
        g = np.zeros(n)
        if values is not None:
            vals = np.asarray(values)
            g[mask] = vals[mask] if vals.shape == g.shape else vals
            if g.any():
                Ag = np.zeros(n)
                _sparsetools.csr_matvec(
                    n, n, layout.lift_indptr, layout.lift_indices,
                    np.take(A.data, layout.lift), g, Ag,
                )
                b_bc -= Ag
        b_bc[mask] = g[mask]
        return b_bc

    def _layout(self, A: sp.csr_matrix, mask: np.ndarray) -> "_DirichletLayout":
        """The Dirichlet layout of ``mask`` for a matrix of this plan, built
        on first use per distinct mask."""
        if A.indptr is not self.indptr or A.indices is not self.indices:
            raise StaleAssemblyPlanError(
                "eliminate() / lift() need a matrix assembled by this plan "
                "(shared indptr / indices); assemble the operator with "
                "get_plan(mesh).assemble(Ke), not by CSR arithmetic"
            )
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_dofs,):
            raise ValueError(
                f"mask shape {mask.shape} does not match plan ({self.n_dofs},)"
            )
        key = mask.tobytes()
        layout = self._dirichlet.get(key)
        if layout is None:
            with obs.span("assembly.symbolic"):
                layout = self._dirichlet[key] = _DirichletLayout(self, mask)
        return layout


class _DirichletLayout:
    """One Dirichlet mask's split of a plan's ``data`` slots:

    * ``keep``: a mask of the slots elimination keeps, the couplings among
      free DOFs and the diagonal of each constrained row, whose compact CSR
      layout is ``indptr`` / ``indices`` (``diag``: where the constrained
      diagonals sit in it);
    * ``lift``: the slots coupling a free row to a constrained column, in
      the CSR layout ``lift_indptr`` / ``lift_indices``.

    Built in O(nnz) from one count per row of the constrained columns.
    Every DOF couples to itself in a plan's pattern, so no row is empty and
    the diagonal is the one slot a constrained row keeps.  ``keep`` is a
    byte a slot, a quarter of the int32 slot list, and gathers faster on
    all but half-eliminated patterns; the other arrays take the plan's
    index dtype."""

    def __init__(self, plan: AssemblyPlan, mask: np.ndarray):
        indptr, indices = plan.indptr, plan.indices
        idx = indices.dtype
        self.mask = mask
        per_row = np.diff(indptr)
        bc_row = np.repeat(mask, per_row)
        bc_col = np.take(mask, indices)
        n_bc_cols = np.add.reduceat(bc_col, indptr[:-1], dtype=idx)

        self.lift = np.flatnonzero(bc_col & ~bc_row).astype(idx)
        keep = self.keep = bc_row & (plan._slot_rows() == indices)
        keep |= ~(bc_row | bc_col)

        self.indptr = self._indptr(np.where(mask, 1, per_row - n_bc_cols), idx)
        self.indices = indices[keep]
        self.diag = self.indptr[:-1][mask]
        self.lift_indptr = self._indptr(np.where(mask, 0, n_bc_cols), idx)
        self.lift_indices = np.take(indices, self.lift)

    @staticmethod
    def _indptr(per_row: np.ndarray, dtype) -> np.ndarray:
        out = np.zeros(len(per_row) + 1, dtype=dtype)
        np.cumsum(per_row, out=out[1:])
        return out


def get_plan(mesh: Mesh) -> AssemblyPlan:
    """The :class:`AssemblyPlan` of ``mesh``, built on first use and kept in
    ``mesh.memo`` (it holds no reference to the mesh, so it dies with it)."""
    plan = mesh.memo.get("plan")
    if plan is None:
        plan = mesh.memo["plan"] = AssemblyPlan(mesh)
    return plan
