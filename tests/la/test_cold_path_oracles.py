"""A mesh's cold-path solver structures against their earlier forms.

The GMG hierarchy takes a wholly used uniform level as it is and prunes
columns by a count, the V-cycle smooths into per-level work vectors, the
plan's symbolic phase reads the element->DOF table and expands only the
slots that touch a hanging node, its 2x2 block layout is built from the
plan's ``indptr`` / ``indices`` and its load scatter from ``P``'s arrays.
The references below are those builders as they were before, kept
verbatim (the hierarchy without its ``memo`` lookup, so it is built
afresh): each new form must give the same arrays, bit for bit, and the
same dtypes.  Meshes: 2D and 3D meshes with hanging nodes, the seed-0
``cavity2d`` workload mesh (graded to its walls) and uniform meshes, whose
every coarse level is used whole; the plan also on every stepping
workload's mesh, carved trees, the ``jet2d_amr`` cycle meshes and random
balanced trees.  Arrays and counts only, no timing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.chns import forms
from repro.fem.basis import quad_point_coords, shape_functions
from repro.fem.plan import AssemblyPlan, _csr, _sort_pairs, get_plan
from repro.la import gmg
from repro.la.gmg import GeometricMultigrid, hierarchy_for
from repro.la.krylov import cg
from repro.la.precond import GMG_COARSEST_LEVEL, make_preconditioner
from repro.mesh.nodes import expand_ragged
from repro.mesh.distributed import DistributedField
from repro.mesh.mesh import Mesh
from repro.mpi.comm import run_spmd
from repro.octree import morton
from repro.octree.balance import balance
from repro.octree.build import build_tree, uniform_tree
from repro.octree.refine import refine

from ..mesh.test_build_oracles import _workloads, carved, graded, workload_mesh

OMEGA, SMOOTH_STEPS = gmg.OMEGA, gmg.SMOOTH_STEPS


# ------------------------------------------------------------- references


def reference_uniform_prolongation(dim: int, level: int) -> sp.csr_matrix:
    P1 = gmg._interp_1d(level)
    P = P1
    for _ in range(dim - 1):
        P = sp.kron(P1, P, format="csr")
    return P


def reference_mesh_prolongation(mesh: Mesh, level: int) -> sp.csr_matrix:
    dim = mesh.dim
    shift = morton.MAX_DEPTH - level
    n = (1 << level) + 1
    xyz = mesh.nodes.coords[mesh.nodes.node_of_dof]
    cell = np.minimum(xyz >> shift, n - 2)
    xi = (xyz - (cell << shift)) / float(1 << shift)
    w = shape_functions(xi, dim)
    # lexicographic index of each corner's grid point, x fastest
    col = (cell[:, None, :] + morton.corner_bits(dim)) @ n ** np.arange(dim)
    keep = (w > 0.0).T  # corner-major
    rows = np.broadcast_to(np.arange(mesh.n_dofs), keep.shape)[keep]
    return sp.csr_matrix(
        (w.T[keep], (rows, col.T[keep])), shape=(mesh.n_dofs, n**dim)
    )


def reference_prune_columns(P: sp.csr_matrix):
    used = np.unique(P.indices)
    renumber = np.empty(P.shape[1], dtype=P.indices.dtype)
    renumber[used] = np.arange(len(used), dtype=P.indices.dtype)
    pruned = sp.csr_matrix(
        (P.data, renumber[P.indices], P.indptr), shape=(P.shape[0], len(used))
    )
    return pruned, used


def reference_hierarchy_for(fine_mesh: Mesh, coarsest_level: int) -> list:
    finest = int(fine_mesh.tree.levels.max())
    if coarsest_level >= finest:
        raise ValueError("coarsest_level must be below the fine level")
    chain, kept = [], None  # kept: the points of the level above still in use
    for level in range(finest - 1, coarsest_level - 1, -1):
        if kept is None:
            P = reference_mesh_prolongation(fine_mesh, level)
        else:
            P = reference_uniform_prolongation(fine_mesh.dim, level + 1)[kept]
        P, kept = reference_prune_columns(P)
        chain.append((P, P.T.tocsr()))
    return chain


class ReferenceMultigrid:
    """``GeometricMultigrid`` with its allocating cycle."""

    def __init__(self, fine_mesh, A_fine, *, coarsest_level=2):
        self.levels = []
        A = A_fine.tocsr()
        chain = reference_hierarchy_for(fine_mesh, coarsest_level)
        for P, R in [*chain, (None, None)]:
            d = A.diagonal()
            d = np.where(np.abs(d) > 1e-300, d, 1.0)
            self.levels.append((A, P, R, 1.0 / d))
            if P is not None:
                A = R @ A @ P
        A_c = self.levels[-1][0]
        self._coarse_lu = spla.splu(A_c.tocsc() + 1e-12 * sp.eye(
            A_c.shape[0], format="csc"
        ))

    def _smooth(self, lvl, x, b, n):
        A, _, _, inv_diag = lvl
        for _ in range(n):
            x = x + OMEGA * inv_diag * (b - A @ x)
        return x

    def v_cycle(self, b, level=0):
        lvl = self.levels[level]
        if level == len(self.levels) - 1:
            return self._coarse_lu.solve(b)
        A, P, R, _ = lvl
        x = self._smooth(lvl, np.zeros_like(b), b, SMOOTH_STEPS)
        r = b - A @ x
        rc = R @ r
        ec = self.v_cycle(rc, level + 1)
        x = x + P @ ec
        return self._smooth(lvl, x, b, SMOOTH_STEPS)


def reference_preconditioner(mesh, K):
    finest = int(mesh.tree.levels.max())
    g = ReferenceMultigrid(
        mesh, K.tocsr(), coarsest_level=min(GMG_COARSEST_LEVEL, finest - 1)
    )

    def v_cycle(r):
        z = g.v_cycle(r - r.mean())
        return z - z.mean()

    return v_cycle


def reference_block_2x2(plan: AssemblyPlan, d11, d12, d21, d22):
    A = [plan._matrix(d) for d in (d11, d12, d21, d22)]
    return sp.bmat([A[:2], A[2:]], format="csr")


def reference_scatter(plan: AssemblyPlan) -> sp.csr_matrix:
    return plan._P[plan._en.ravel()].T.tocsr()


class ReferencePlan:
    """``AssemblyPlan``'s symbolic phase as it was: ``P``-row counts per
    slot, boolean-mask fills of the one-entry and expanded slots, one
    stable ``argsort`` of the ``(a, b)`` key and a round trip through
    scipy's validating constructor."""

    def __init__(self, mesh: Mesh):
        self._build(mesh)

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


# ----------------------------------------------------------------- meshes


MESHES = {
    "graded2d": lambda: graded(2),
    "graded3d": lambda: graded(3),
    "cavity2d": lambda: workload_mesh("cavity2d"),
    "uniform2d": lambda: Mesh.from_tree(uniform_tree(2, 5)),
    "uniform3d": lambda: Mesh.from_tree(uniform_tree(3, 3)),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def coarsest(mesh) -> int:
    return min(GMG_COARSEST_LEVEL, int(mesh.tree.levels.max()) - 1)


def pp_operator(mesh):
    """A pressure-Poisson ``K_{1/rho}`` with a 100:1 density drop."""
    scale = float(1 << morton.MAX_DEPTH)
    qp = quad_point_coords(mesh.tree.anchors / scale, mesh.elem_h(),
                           mesh.dim)
    inside = np.linalg.norm(qp - 0.4, axis=-1) < 0.25
    return forms.stiffness(mesh, np.where(inside, 0.01, 1.0))


def rhs(mesh, seed=0):
    b = np.random.default_rng(seed).standard_normal(mesh.n_dofs)
    return b - b.mean()


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: ``-0.0`` is not ``0.0`` here."""
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def assert_same_csr(new, ref):
    assert new.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(new, name), getattr(ref, name)), name


# ------------------------------------------------------------------ tests


class TestHierarchy:
    def test_chain_matches_reference(self, mesh):
        mesh.memo.clear()
        chain = hierarchy_for(mesh, coarsest(mesh))
        ref = reference_hierarchy_for(mesh, coarsest(mesh))
        assert len(chain) == len(ref)
        for (P, R), (P_ref, R_ref) in zip(chain, ref):
            assert_same_csr(P, P_ref)
            assert_same_csr(R, R_ref)

    def test_both_level_kinds_are_covered(self):
        """The graded meshes prune a uniform level, the uniform ones use
        every uniform level whole: both branches of the chain are pinned."""
        pruned = whole = 0
        for build in MESHES.values():
            m = build()
            finest = int(m.tree.levels.max())
            for level, (P, _) in enumerate(hierarchy_for(m, coarsest(m))):
                if level == 0:
                    continue
                grid = ((1 << (finest - level)) + 1) ** m.dim
                whole += P.shape[0] == grid
                pruned += P.shape[0] < grid
        assert pruned > 0 and whole > 0


class TestCycle:
    def test_v_cycle_matches_reference(self, mesh):
        K = pp_operator(mesh)
        new = GeometricMultigrid(mesh, K, coarsest_level=coarsest(mesh))
        ref = ReferenceMultigrid(mesh, K, coarsest_level=coarsest(mesh))
        # two cycles in a row: the work vectors carry nothing over
        for seed in (0, 1):
            b = rhs(mesh, seed)
            assert same_bits(new.v_cycle(b), ref.v_cycle(b))

    def test_v_cycle_returns_a_fresh_array(self, mesh):
        new = GeometricMultigrid(mesh, pp_operator(mesh),
                                 coarsest_level=coarsest(mesh))
        z = new.v_cycle(rhs(mesh, 0))
        keep = z.copy()
        new.v_cycle(rhs(mesh, 1))
        assert np.array_equal(z, keep)

    def test_gmg_cg_matches_reference(self, mesh):
        K, b = pp_operator(mesh), rhs(mesh)
        new = cg(K, b, M=make_preconditioner(mesh, K), tol=1e-9, maxiter=400)
        ref = cg(K, b, M=reference_preconditioner(mesh, K), tol=1e-9,
                 maxiter=400)
        assert new.converged and ref.converged
        assert new.iterations == ref.iterations
        assert same_bits(new.x, ref.x)


class TestPlan:
    def test_block_2x2_matches_bmat(self, mesh):
        plan = AssemblyPlan(mesh)
        rng = np.random.default_rng(3)
        for _ in range(2):  # the layout is built once, then reused
            d = [rng.standard_normal(plan.nnz) for _ in range(4)]
            B = plan.block_2x2(*d)
            assert_same_csr(B, reference_block_2x2(plan, *d))
            assert B.indptr is plan.block_2x2(*d).indptr

    def test_load_scatter_matches_reference(self, mesh):
        plan = get_plan(mesh)
        plan.scatter_loads(np.zeros(plan.ke_shape[:2]))
        assert_same_csr(plan._scatter, reference_scatter(plan))


@pytest.mark.parametrize("nprocs", [1, 3])
def test_needed_nodes_match_unique(mesh, nprocs):
    """``DistributedField.needed``: a count in place of ``np.unique``."""
    def fn(comm):
        df = DistributedField(comm, mesh)
        ref = np.unique(df.local_elem_nodes)
        return same_bits(df.needed, ref)

    assert all(run_spmd(nprocs, fn))


# ------------------------------------------------------------ plan build


def jet_cycle_meshes() -> list:
    """The initial mesh and every mesh a remesh cycle builds in 7 steps of
    the seed-0 ``jet2d_amr`` workload."""
    wl = _workloads()
    sim = wl.make_sim(wl.generate("jet2d_amr", 0))
    sim.setup()
    meshes = [sim.mesh]
    for _ in range(7):
        sim.step()
        if sim.mesh is not meshes[-1]:
            meshes.append(sim.mesh)
    return meshes


PLAN_MESHES = {
    **{name: (lambda name=name: workload_mesh(name)) for name in (
        "bubble2d", "spinodal2d", "cavity2d", "bubble3d", "jet2d_amr")},
    "graded2d": lambda: graded(2),
    "graded3d": lambda: graded(3),
    "uniform2d": lambda: Mesh.from_tree(uniform_tree(2, 5)),
    "uniform3d": lambda: Mesh.from_tree(uniform_tree(3, 3)),
    "carved2d": lambda: Mesh(carved(2)),
    "carved3d": lambda: Mesh(carved(3)),
}


def assert_same_plan(mesh: Mesh) -> None:
    new, ref = AssemblyPlan(mesh), ReferencePlan(mesh)
    assert new.nnz == ref.nnz
    assert_same_csr(new._S, ref._S)
    assert_same_csr(new._proto, ref._proto)
    assert same_bits(new.indices, ref.indices)
    assert same_bits(new.indptr, ref.indptr)
    assert new._proto.indices is new.indices
    assert new._proto.indptr is new.indptr


class TestPlanBuild:
    @pytest.mark.parametrize("name", sorted(PLAN_MESHES))
    def test_plan_matches_reference(self, name):
        assert_same_plan(PLAN_MESHES[name]())

    def test_jet_cycle_meshes_match_reference(self):
        meshes = jet_cycle_meshes()
        assert len(meshes) == 6  # 5 of the 6 cycles change the tree
        for mesh in meshes:
            assert_same_plan(mesh)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]))
    def test_property_random_balanced_trees(self, seed, dim):
        """A random tree, a few leaves refined 2-3 levels in one go, then
        2:1-balanced: hanging nodes of every kind, edge and face."""
        rng = np.random.default_rng(seed)
        t = build_tree(dim, lambda a, lv: rng.random(len(lv)) < 0.4,
                       max_level=4 if dim == 2 else 3, min_level=1)
        targets = t.levels.copy()
        picks = rng.choice(len(t), size=min(2, len(t)), replace=False)
        targets[picks] += rng.integers(2, 4, size=len(picks))
        assert_same_plan(Mesh(balance(refine(t, targets))))

    @pytest.mark.parametrize("bits, n_pos", [(40, 1 << 30), (3, 1 << 62),
                                             (62, 1 << 4), (20, 5)])
    def test_sort_pairs_is_lexsort(self, bits, n_pos):
        """Past 2**63 the key range is cut into blocks of places; the order
        is still ``np.lexsort``'s (one block in the last case)."""
        rng = np.random.default_rng(bits)
        pos = rng.integers(0, n_pos, 4000, dtype=np.int64)
        src = rng.integers(0, 1 << bits, 4000, dtype=np.int64)
        pos[:2], src[:2] = n_pos - 1, (1 << bits) - 1  # both ends
        keep = np.unique(np.stack([pos, src]), axis=1, return_index=True)[1]
        pos, src = pos[np.sort(keep)], src[np.sort(keep)]
        order = np.lexsort((src, pos))
        want_pos, want_src = pos[order], src[order]
        _sort_pairs(pos, src, bits, n_pos)
        assert np.array_equal(pos, want_pos)
        assert np.array_equal(src, want_src)
        past_int64 = bits + (n_pos - 1).bit_length() > 63
        assert past_int64 == ((bits, n_pos) != (20, 5))
