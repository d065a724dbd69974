"""Tests for geometric multigrid (the paper's future-work PP solver)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.basis import quad_point_coords
from repro.fem.operators import load_vector, stiffness_matrix
from repro.fem.plan import get_plan
from repro.la.gmg import GeometricMultigrid, hierarchy_for
from repro.la.krylov import cg
from repro.la.precond import JacobiPreconditioner
from repro.mesh.mesh import Mesh
from repro.octree import morton
from repro.octree.build import uniform_tree

from ..oracles import apply_dirichlet, assemble_matrix, prolongation


def poisson_system(level, coeff=None):
    m = Mesh.from_tree(uniform_tree(2, level))
    h = m.elem_h()
    scale = float(1 << morton.MAX_DEPTH)
    if coeff is None:
        c = 1.0
    else:
        qp = quad_point_coords(m.tree.anchors / scale, h, 2)
        c = coeff(qp.reshape(-1, 2)).reshape(qp.shape[:2])
    A = assemble_matrix(m, stiffness_matrix(h, 2, c))
    b = get_plan(m).scatter_loads(load_vector(h, 2, 1.0))
    mask = m.boundary_dof_mask()
    A_bc, b_bc = apply_dirichlet(A, b, mask, np.zeros(m.n_dofs))
    return m, A_bc, b_bc


class TestProlongation:
    def test_rows_sum_to_one(self):
        c = Mesh.from_tree(uniform_tree(2, 3))
        f = Mesh.from_tree(uniform_tree(2, 4))
        P = prolongation(c, f)
        assert P.shape == (f.n_dofs, c.n_dofs)
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0)

    def test_exact_on_linears(self):
        c = Mesh.from_tree(uniform_tree(2, 3))
        f = Mesh.from_tree(uniform_tree(2, 5))  # two-level jump
        P = prolongation(c, f)
        u = c.interpolate(lambda x: 3 * x[:, 0] - x[:, 1])
        uf = f.interpolate(lambda x: 3 * x[:, 0] - x[:, 1])
        assert np.allclose(P @ u, uf, atol=1e-12)


class TestVcycle:
    def test_standalone_solver_converges(self):
        m, A, b = poisson_system(5)
        gmg = GeometricMultigrid(m, A, coarsest_level=2)
        x, iters, res = gmg.solve(b, tol=1e-10)
        assert res < 1e-10
        assert iters < 25
        assert np.allclose(A @ x, b, atol=1e-8)

    def test_mesh_independent_iterations(self):
        """The GMG hallmark: iteration count does not grow with refinement."""
        counts = []
        for level in (4, 5, 6):
            m, A, b = poisson_system(level)
            gmg = GeometricMultigrid(m, A, coarsest_level=2)
            _, iters, _ = gmg.solve(b, tol=1e-9)
            counts.append(iters)
        assert max(counts) - min(counts) <= 3

    def test_beats_jacobi_cg_on_variable_coefficients(self):
        """The paper's motivation: variable-density pressure Poisson."""

        def rho_jump(x):
            inside = np.linalg.norm(x - 0.5, axis=-1) < 0.25
            return np.where(inside, 100.0, 1.0)  # 100:1 density contrast

        m, A, b = poisson_system(5, coeff=lambda x: 1.0 / rho_jump(x))
        plain = cg(A, b, M=JacobiPreconditioner(A), tol=1e-9, maxiter=4000)
        gmg = GeometricMultigrid(m, A, coarsest_level=2)
        pre = cg(A, b, M=gmg, tol=1e-9, maxiter=400)
        assert plain.converged and pre.converged
        assert pre.iterations < plain.iterations / 3
        assert np.allclose(pre.x, plain.x, atol=1e-5)

    def test_adaptive_fine_mesh_supported(self):
        """An interface-refined (hanging-node) fine mesh gets a uniform
        coarse hierarchy below its finest level; the V-cycle still
        accelerates CG (the PCD preconditioner relies on this on the
        registry scenarios' adaptive meshes)."""
        from repro.octree.refine import refine

        t = uniform_tree(2, 3)
        targets = t.levels.copy()
        targets[: len(targets) // 2] = 4
        m = Mesh.from_tree(refine(t, targets))
        A = assemble_matrix(m, stiffness_matrix(m.elem_h(), 2))
        A = (A + sp.eye(m.n_dofs)).tocsr()  # shift off the Neumann nullspace
        gmg = GeometricMultigrid(m, A, coarsest_level=2)
        b = np.sin(np.arange(m.n_dofs))
        plain = cg(A, b, tol=1e-10, maxiter=2000)
        pre = cg(A, b, M=gmg, tol=1e-10, maxiter=200)
        assert pre.converged
        assert pre.iterations < plain.iterations
        assert np.allclose(pre.x, plain.x, atol=1e-6)

    def test_requires_strictly_coarser_base(self):
        m, A, _ = poisson_system(3)
        with pytest.raises(ValueError):
            GeometricMultigrid(m, A, coarsest_level=3)

    def test_as_preconditioner_spd_behavior(self):
        m, A, b = poisson_system(4)
        gmg = GeometricMultigrid(m, A, coarsest_level=2)
        res = cg(A, b, M=gmg, tol=1e-10, maxiter=100)
        assert res.converged
        assert res.iterations <= 15


# ---------------------------------------------------------------------------
# The lean per-mesh hierarchy (no Mesh, pruned levels)
# ---------------------------------------------------------------------------


def _refined(dim, base, corner_level, extent=1):
    """Level-``base`` mesh with the octants within ``2**-extent`` of the
    origin refined to ``corner_level`` (hanging nodes around them)."""
    from repro.octree.refine import refine

    t = uniform_tree(dim, base)
    targets = t.levels.copy()
    near = np.all(t.anchors < (1 << (morton.MAX_DEPTH - extent)), axis=1)
    targets[near] = corner_level
    m = Mesh.from_tree(refine(t, targets))
    assert m.nodes.is_hanging.any()
    return m


def _lex_order(uniform_mesh, level):
    """DOF indices of a uniform mesh in lexicographic (x fastest) order."""
    shift = morton.MAX_DEPTH - level
    n = (1 << level) + 1
    ijk = uniform_mesh.nodes.coords[uniform_mesh.nodes.node_of_dof] >> shift
    lex = sum(ijk[:, axis] * n**axis for axis in range(uniform_mesh.dim))
    return np.argsort(lex)


def _oracle_chain(fine, coarsest_level, prune):
    """The hierarchy the way it used to be built: a uniform ``Mesh`` per
    level and :func:`prolongation` between consecutive meshes; columns put
    in lexicographic order and, with ``prune``, the unused ones dropped."""
    finest = int(fine.tree.levels.max())
    chain = []
    upper, rows = fine, None
    for level in range(finest - 1, coarsest_level - 1, -1):
        lower = Mesh.from_tree(uniform_tree(fine.dim, level))
        order = _lex_order(lower, level)
        P = prolongation(lower, upper)[:, order]
        if rows is not None:
            P = P[rows]
        if prune:
            used = np.flatnonzero(np.diff(P.tocsc().indptr))
            P = P[:, used]
        else:
            used = np.arange(P.shape[1])
        chain.append(P.tocsr())
        upper, rows = lower, order[used]
    return chain


FINE_MESHES = {
    "2d-uniform": lambda: Mesh.from_tree(uniform_tree(2, 4)),
    "2d-hanging": lambda: _refined(2, 3, 5),
    "3d-uniform": lambda: Mesh.from_tree(uniform_tree(3, 3)),
    "3d-hanging": lambda: _refined(3, 2, 4),
}


class TestLeanHierarchy:
    @pytest.mark.parametrize("name", sorted(FINE_MESHES))
    def test_matches_mesh_to_mesh_prolongation(self, name):
        fine = FINE_MESHES[name]()
        chain = hierarchy_for(fine, 1)
        oracle = _oracle_chain(fine, 1, prune=True)
        assert len(chain) == len(oracle)
        for (P, R), P_ref in zip(chain, oracle):
            assert P.shape == P_ref.shape
            assert abs(P - P_ref).max() <= 1e-15
            assert abs(R - P_ref.T).max() <= 1e-15
            assert sp.isspmatrix_csr(P) and sp.isspmatrix_csr(R)
            # interpolation reproduces constants on every level
            assert np.allclose(P @ np.ones(P.shape[1]), 1.0, atol=1e-15)

    def test_level_sizes_never_grow_on_a_locally_refined_mesh(self):
        """One corner element at level 6 on a level-3 mesh: the uniform
        level-5 grid (1089 points) dwarfs the fine mesh; the pruned level
        does not."""
        fine = _refined(2, 3, 6, extent=3)
        assert fine.n_dofs < 33 * 33
        sizes = [fine.n_dofs] + [P.shape[1] for P, _ in hierarchy_for(fine, 2)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:])), sizes
        assert sizes[-1] == 5 * 5  # the coarsest uniform grid is whole

    def test_builds_no_mesh_and_keeps_none_alive(self, monkeypatch):
        import gc
        import weakref

        fine = _refined(2, 3, 5)
        built = []
        init = Mesh.__init__
        monkeypatch.setattr(
            Mesh, "__init__",
            lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1],
        )
        chain = hierarchy_for(fine, 2)
        assert built == []
        assert hierarchy_for(fine, 2) is chain  # kept for the mesh's life
        assert fine.memo[("gmg", 2)] is chain
        assert all(sp.issparse(X) for pair in chain for X in pair)
        # the chain does not hold the mesh, and goes when the mesh goes
        ref, P = weakref.ref(fine), weakref.ref(chain[0][0])
        del fine, chain
        gc.collect()
        assert ref() is None
        assert P() is None

    @pytest.mark.parametrize("name", ["2d-hanging", "3d-hanging"])
    def test_pruning_leaves_the_vcycle_unchanged(self, name, monkeypatch):
        from repro.la import gmg

        fine = FINE_MESHES[name]()
        h = fine.elem_h()
        A = assemble_matrix(fine, stiffness_matrix(h, fine.dim))
        A = (A + sp.eye(fine.n_dofs)).tocsr()
        b = np.sin(np.arange(fine.n_dofs))
        pruned = cg(A, b, M=GeometricMultigrid(fine, A, coarsest_level=1),
                    tol=1e-10, maxiter=200)
        full = [(P, P.T.tocsr()) for P in _oracle_chain(fine, 1, prune=False)]
        assert full[0][0].shape[1] > hierarchy_for(fine, 1)[0][0].shape[1]
        monkeypatch.setattr(gmg, "hierarchy_for", lambda *a: full)
        unpruned = cg(A, b, M=GeometricMultigrid(fine, A, coarsest_level=1),
                      tol=1e-10, maxiter=200)
        assert pruned.converged and unpruned.converged
        assert pruned.iterations == unpruned.iterations
        assert np.allclose(pruned.x, unpruned.x, rtol=0, atol=1e-10)
