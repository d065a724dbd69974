"""Tests for nodal enumeration, hanging nodes, and the Mesh wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.mesh import Mesh, mesh_from_field
from repro.mesh.nodes import enumerate_nodes, pack_points, unpack_points
from repro.octree import morton
from repro.octree.balance import balance
from repro.octree.build import build_tree, uniform_tree
from repro.octree.refine import refine

from ..oracles import elem_scatter


def two_level_mesh(dim=2):
    """One quadrant refined one extra level -> guaranteed hanging nodes."""
    t = uniform_tree(dim, 1)
    targets = t.levels.copy()
    targets[0] = 2
    return Mesh.from_tree(refine(t, targets))


def random_mesh(seed, dim, max_level=4, p=0.45):
    rng = np.random.default_rng(seed)

    def pred(anchors, levels):
        return rng.random(len(levels)) < p

    return Mesh.from_tree(build_tree(dim, pred, max_level=max_level, min_level=1))


class TestPacking:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_roundtrip_including_max_coord(self, dim):
        hi = 1 << morton.MAX_DEPTH
        rng = np.random.default_rng(0)
        pts = rng.integers(0, hi + 1, size=(100, dim))
        pts[0] = hi  # the far corner
        keys = pack_points(pts, dim)
        assert np.array_equal(unpack_points(keys, dim), pts)

    def test_unique(self):
        hi = 1 << morton.MAX_DEPTH
        pts = np.array([[0, hi], [hi, 0], [0, 0], [hi, hi]])
        assert len(np.unique(pack_points(pts, 2))) == 4


class TestUniformMeshNodes:
    @pytest.mark.parametrize("dim,level", [(2, 2), (2, 3), (3, 2)])
    def test_counts(self, dim, level):
        m = Mesh.from_tree(uniform_tree(dim, level))
        n_side = (1 << level) + 1
        assert m.n_nodes == n_side**dim
        assert m.n_dofs == m.n_nodes  # no hanging nodes on uniform meshes
        assert not np.any(m.nodes.is_hanging)

    def test_p_is_identity(self):
        m = Mesh.from_tree(uniform_tree(2, 2))
        eye = m.nodes.P.toarray()
        assert np.array_equal(eye, np.eye(m.n_dofs))

    def test_elem_nodes_are_corners(self):
        m = Mesh.from_tree(uniform_tree(2, 1))
        for e in range(m.n_elems):
            got = m.nodes.coords[m.nodes.elem_nodes[e]]
            assert np.array_equal(got, m.tree.corners()[e])


class TestHangingNodes:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_hanging_exist_on_graded_mesh(self, dim):
        m = two_level_mesh(dim)
        assert np.any(m.nodes.is_hanging)

    def test_2d_hanging_count(self):
        # One refined quadrant in 2D: hanging nodes are the midpoints of the
        # two coarse edges separating fine from coarse: exactly 2.
        m = two_level_mesh(2)
        assert int(m.nodes.is_hanging.sum()) == 2

    def test_hanging_weights_sum_to_one(self):
        for dim in (2, 3):
            m = two_level_mesh(dim)
            rows = np.asarray(m.nodes.P.sum(axis=1)).ravel()
            assert np.allclose(rows, 1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_linear_field_interpolates_exactly(self, dim):
        """Patch property: hanging interpolation reproduces affine fields."""
        m = random_mesh(1, dim)
        coeffs = np.arange(1, dim + 1, dtype=np.float64)

        def f(x):
            return x @ coeffs + 0.5

        u = m.interpolate(f)
        nv = m.node_values(u)
        expect = f(m.nodes.coords / float(1 << morton.MAX_DEPTH))
        assert np.allclose(nv, expect, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_hanging_parent_chains_unresolved(self, dim):
        m = random_mesh(2, dim)
        # Every P column refers to a DOF; every hanging row must have weights.
        hang_rows = np.nonzero(m.nodes.is_hanging)[0]
        for r in hang_rows[:50]:
            row = m.nodes.P.getrow(r)
            assert row.nnz >= 2
            assert np.isclose(row.sum(), 1.0)

    def test_3d_face_hanging_weights(self):
        m = two_level_mesh(3)
        # Face-hanging nodes have 4 parents at weight 1/4; edge-hanging 2 at 1/2.
        P = m.nodes.P
        for r in np.nonzero(m.nodes.is_hanging)[0]:
            w = np.sort(P.getrow(r).data)
            ok = (len(w) == 2 and np.allclose(w, 0.5)) or (
                len(w) == 4 and np.allclose(w, 0.25)
            )
            assert ok, f"unexpected hanging weights {w}"


class TestMesh:
    def test_requires_balance(self):
        t = uniform_tree(2, 1)
        targets = t.levels.copy()
        targets[0] = 3
        unbalanced = refine(t, targets)
        with pytest.raises(ValueError):
            Mesh(unbalanced)
        m = Mesh.from_tree(unbalanced)  # balances internally
        assert m.n_elems >= len(unbalanced)

    def test_boundary_masks(self):
        m = Mesh.from_tree(uniform_tree(2, 2))
        nb = m.boundary_dof_mask()
        # 2D level-2 grid: 5x5 nodes, 16 on the boundary.
        assert int(nb.sum()) == 16
        left = m.face_dof_mask(0, 0)
        assert int(left.sum()) == 5
        xy = m.dof_xy()
        assert np.all(xy[left][:, 0] == 0.0)

    def test_gather_scatter_adjoint(self):
        """elem_scatter is the exact transpose of elem_gather."""
        m = random_mesh(3, 2)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(m.n_dofs)
        w = rng.standard_normal((m.n_elems, 1 << m.dim))
        lhs = float(np.sum(m.elem_gather(u) * w))
        rhs = float(u @ elem_scatter(m, w))
        assert np.isclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_evaluate_at_reproduces_linears(self, dim):
        m = random_mesh(5, dim)

        def f(x):
            return 2.0 * x[:, 0] - (x[:, 1] if dim > 1 else 0) + 0.25

        u = m.interpolate(f)
        rng = np.random.default_rng(6)
        pts = rng.random((50, dim))
        vals = m.evaluate_at(u, pts)
        assert np.allclose(vals, f(pts), atol=1e-10)

    def test_mesh_from_field(self):
        def phi(x):
            return np.linalg.norm(x - 0.5, axis=1) - 0.25

        m = mesh_from_field(phi, 2, max_level=5, min_level=2, threshold=0.02)
        assert m.tree.levels.max() == 5
        assert m.n_dofs > 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2000), dim=st.sampled_from([2, 3]))
def test_property_partition_of_unity(seed, dim):
    """P rows always sum to 1 and constants are reproduced exactly."""
    m = random_mesh(seed, dim, max_level=3)
    ones = np.ones(m.n_dofs)
    assert np.allclose(m.node_values(ones), 1.0)
    # Element gather of the constant is constant.
    assert np.allclose(m.elem_gather(ones), 1.0)
