"""A mesh's cold-path solver structures against their earlier forms.

The GMG hierarchy takes a wholly used uniform level as it is and prunes
columns by a count, the V-cycle smooths into per-level work vectors, the
plan's 2x2 block layout is built from the plan's ``indptr`` / ``indices``
and its load scatter from ``P``'s arrays.  The references below are those
builders as they were before, kept verbatim (the hierarchy without its
``memo`` lookup, so it is built afresh): each new form must give the same
arrays, bit for bit, and the same dtypes.  Meshes: 2D and 3D meshes with
hanging nodes, the seed-0 ``cavity2d`` workload mesh (graded to its walls)
and uniform meshes, whose every coarse level is used whole.  Arrays
and counts only, no timing.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.chns import forms
from repro.fem.basis import quad_point_coords, shape_functions
from repro.fem.plan import AssemblyPlan, get_plan
from repro.la import gmg
from repro.la.gmg import GeometricMultigrid, hierarchy_for
from repro.la.krylov import cg
from repro.la.precond import GMG_COARSEST_LEVEL, make_preconditioner
from repro.mesh.distributed import DistributedField
from repro.mesh.mesh import Mesh
from repro.mpi.comm import run_spmd
from repro.octree import morton
from repro.octree.build import uniform_tree

from ..mesh.test_build_oracles import graded, workload_mesh

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
