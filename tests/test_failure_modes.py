"""Failure injection and edge-case behavior across the stack.

A production library must fail loudly and precisely; these tests pin down
the error contracts: bad inputs raise specific exceptions, solvers report
non-convergence instead of returning garbage, and distributed primitives
surface deadlocks and rank failures.
"""

import numpy as np
import pytest

from repro.amr.checkpoint import load_checkpoint, save_checkpoint
from repro.amr.driver import RemeshConfig
from repro.chns.params import CHNSParams
from repro.la.krylov import bicgstab, cg, gmres
from repro.la.newton import newton_solve
from repro.mesh.intergrid import transfer_cell_centered, transfer_node_centered
from repro.mesh.mesh import Mesh
from repro.mpi.comm import Comm, SpmdError, run_spmd
from repro.octree import morton
from repro.octree.build import build_tree, uniform_tree
from repro.octree.coarsen import coarsen
from repro.octree.parcoarsen import par_coarsen
from repro.octree.refine import refine
from repro.octree.tree import Octree


def quadrant(level: int) -> Octree:
    """The lower-left quadrant of ``uniform_tree(2, level)``: its Morton
    prefix of ``4**(level - 1)`` leaves, an incomplete tree."""
    full = uniform_tree(2, level)
    n = 4 ** (level - 1)
    return Octree(full.anchors[:n], full.levels[:n], 2, presorted=True)


class TestOctreeContracts:
    def test_morton_rejects_negative_anchor(self):
        with pytest.raises(ValueError):
            morton.morton(np.array([[-1, 0]]), 2)

    def test_octree_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Octree(np.zeros((2, 2), np.int64), np.zeros(3, np.int64), 2)

    def test_refine_rejects_wrong_target_length(self):
        t = uniform_tree(2, 2)
        with pytest.raises(ValueError):
            refine(t, t.levels[:-1])

    def test_refine_rejects_past_max_depth(self):
        t = uniform_tree(2, 1)
        with pytest.raises(ValueError):
            refine(t, np.full(len(t), morton.MAX_DEPTH + 1))

    def test_coarsen_rejects_negative_votes(self):
        t = uniform_tree(2, 2)
        with pytest.raises(ValueError):
            coarsen(t, np.full(len(t), -1))

    def test_merged_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            uniform_tree(2, 1).merged(uniform_tree(3, 1))

    def test_locate_outside_domain(self):
        t = quadrant(2)
        far = np.array([[(1 << morton.MAX_DEPTH) - 1] * 2])
        assert t.locate_points(far)[0] == -1

    def test_balance_rejects_nonlinear_input(self):
        from repro.octree.balance import balance

        t = uniform_tree(2, 2)
        dup = t.merged(Octree.root(2))  # contains an ancestor
        with pytest.raises(ValueError):
            balance(dup)


class TestDistributedContracts:
    def test_rank_exception_identifies_rank(self):
        def fail_on_two(comm):
            if comm.rank == 2:
                raise RuntimeError("injected")
            comm.barrier()

        with pytest.raises(SpmdError, match="rank 2"):
            run_spmd(4, fail_on_two, timeout=5)

    def test_recv_timeout_is_deadlock_error(self):
        with pytest.raises(SpmdError, match="timed out|deadlock"):
            run_spmd(2, lambda c: c.recv(source=1 - c.rank, tag=9), timeout=0.3)

    def test_send_to_invalid_rank(self):
        def fn(comm):
            comm.send(1, comm.size + 5)

        with pytest.raises(SpmdError):
            run_spmd(2, fn)

    def test_alltoall_wrong_length(self):
        def fn(comm):
            comm.alltoall([1])  # needs comm.size entries

        with pytest.raises(SpmdError):
            run_spmd(3, fn)

    def test_par_coarsen_vote_length_mismatch(self):
        t = uniform_tree(2, 2)

        def fn(comm):
            par_coarsen(comm, t, np.zeros(3, np.int64))

        with pytest.raises(SpmdError):
            run_spmd(2, fn)

    def test_more_ranks_than_elements(self):
        """Degenerate decomposition: some ranks own zero elements."""
        from repro.mesh.distributed import DistributedField
        from repro.fem.operators import mass_matrix

        mesh = Mesh.from_tree(uniform_tree(2, 1))  # 4 elements
        Ke = mass_matrix(mesh.elem_h(), 2)
        u = np.ones(mesh.n_nodes)

        def fn(comm):
            df = DistributedField(comm, mesh)
            out = df.matvec(Ke[df.elem_lo : df.elem_hi], df.from_global(u))
            return (df.owned, out)

        outs = run_spmd(6, fn)  # 6 ranks, 4 elements
        total = sum(len(o[0]) for o in outs)
        assert total == mesh.n_nodes


class TestSolverContracts:
    def test_cg_reports_breakdown_on_indefinite(self):
        A = np.diag([1.0, -1.0, 2.0])
        b = np.ones(3)
        res = cg(lambda x: A @ x, b, maxiter=10)
        assert not res.converged

    def test_gmres_zero_matrix(self):
        res = gmres(lambda x: np.zeros_like(x), np.ones(4), maxiter=8)
        assert not res.converged

    def test_bicgstab_singular_reports(self):
        A = np.zeros((3, 3))
        res = bicgstab(lambda x: A @ x, np.ones(3), maxiter=10)
        assert not res.converged
        # denom == 0 breakdown in the first iteration, not "ran to maxiter"
        assert res.iterations == 1

    def test_bicgstab_overflow_reports_iteration_reached(self):
        """An operator that overflows from its third iteration on: x turns
        non-finite there and that iteration is what the result reports."""
        A = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.5 * np.eye(4, k=1)
        calls = []

        def mv(x):
            calls.append(1)
            # call 1 is the initial residual, then two per iteration
            return A @ x if len(calls) <= 5 else np.full_like(x, np.inf)

        res = bicgstab(mv, np.ones(4), tol=1e-30, maxiter=50)
        assert not res.converged
        assert res.iterations == 3
        assert res.residual == np.inf

    def test_newton_nonconvergence_reported(self):
        import scipy.sparse as sp

        def F(x):
            return np.array([np.exp(x[0]) + 1.0])  # no real root

        def J(x):
            return sp.csr_matrix(np.array([[np.exp(x[0])]]))

        res = newton_solve(F, J, np.array([0.0]), tol=1e-12, maxiter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_krylov_rejects_unknown_operator(self):
        with pytest.raises(TypeError):
            cg("not an operator", np.ones(3))


class TestMeshAndTransferContracts:
    def test_evaluate_outside_domain(self):
        m = Mesh.from_tree(quadrant(3))
        u = np.zeros(m.n_dofs)
        with pytest.raises(ValueError):
            m.evaluate_at(u, np.array([[0.9, 0.9]]))

    def test_transfer_onto_noncovering_grid(self):
        old = quadrant(2)
        new = uniform_tree(2, 2)  # full cube: not covered by old
        with pytest.raises(ValueError):
            transfer_cell_centered(old, np.ones(len(old)), new)

    def test_node_transfer_noncovering_source(self):
        m_old = Mesh.from_tree(quadrant(3))
        m_new = Mesh.from_tree(uniform_tree(2, 2))
        with pytest.raises(ValueError):
            transfer_node_centered(m_old, np.zeros(m_old.n_dofs), m_new)

    def test_remesh_config_validation(self):
        with pytest.raises(ValueError):
            RemeshConfig(coarse_level=3, interface_level=2, feature_level=4)


class TestCheckpointContracts:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope"))

    def test_fields_roundtrip_dtypes(self, tmp_path):
        t = uniform_tree(2, 2)
        p = str(tmp_path / "c")
        save_checkpoint(p, t, {"a": np.arange(3.0), "b": np.arange(4)}, 1)
        _, fields, _ = load_checkpoint(p)
        assert fields["a"].dtype == np.float64
        assert fields["b"].dtype == np.int64


class TestParamContracts:
    def test_rejects_nonpositive(self):
        for kw in ({"Re": 0}, {"We": -1}, {"Pe": 0}, {"Cn": -0.1},
                   {"rho_minus": 0.0}):
            with pytest.raises(ValueError):
                CHNSParams(**kw)
