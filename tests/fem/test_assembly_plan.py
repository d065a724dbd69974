"""AssemblyPlan (symbolic/numeric split) vs the reference assembly path.

The plan must reproduce ``assemble_matrix`` to round-off on adaptive meshes
*with hanging nodes* (where the ``P^T A P`` projection actually mixes
entries), share its CSR structure across numeric updates, and live exactly
as long as its mesh (it is kept in ``mesh.memo``).
"""

import gc
import weakref

import numpy as np
import pytest

from repro import obs
from repro.chns import forms
from repro.fem.operators import convection_matrix, mass_matrix, stiffness_matrix
from repro.fem.plan import AssemblyPlan, StaleAssemblyPlanError, get_plan
from repro.la.gmg import hierarchy_for
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree

from ..oracles import assemble_matrix, elem_scatter


def interface(x):
    return np.linalg.norm(x - 0.5, axis=1) - 0.3


@pytest.fixture(scope="module")
def mesh2d():
    m = mesh_from_field(interface, 2, max_level=5, min_level=2, threshold=0.1)
    assert m.nodes.is_hanging.any(), "fixture must exercise hanging nodes"
    return m


@pytest.fixture(scope="module")
def mesh3d():
    m = mesh_from_field(interface, 3, max_level=3, min_level=1, threshold=0.1)
    assert m.nodes.is_hanging.any(), "fixture must exercise hanging nodes"
    return m


def assert_matches_reference(mesh, Ke):
    ref = assemble_matrix(mesh, Ke)
    got = AssemblyPlan(mesh).assemble(Ke)
    assert got.shape == ref.shape
    diff = np.abs(got - ref)
    scale = max(np.abs(ref.data).max(), 1.0)
    assert diff.max() <= 1e-14 * scale


class TestAgainstReference:
    def test_stiffness_2d_hanging(self, mesh2d):
        assert_matches_reference(
            mesh2d, stiffness_matrix(mesh2d.elem_h(), 2)
        )

    def test_weighted_mass_2d_hanging(self, mesh2d):
        rng = np.random.default_rng(0)
        coeff = rng.uniform(0.5, 2.0, (mesh2d.n_elems, 4))
        assert_matches_reference(mesh2d, mass_matrix(mesh2d.elem_h(), 2, coeff))

    def test_stiffness_3d_hanging(self, mesh3d):
        assert_matches_reference(
            mesh3d, stiffness_matrix(mesh3d.elem_h(), 3)
        )

    def test_convection_3d_hanging(self, mesh3d):
        rng = np.random.default_rng(1)
        vq = rng.standard_normal((mesh3d.n_elems, 8, 3))
        assert_matches_reference(
            mesh3d, convection_matrix(mesh3d.elem_h(), 3, vq)
        )

    def test_forms_route_through_plan(self, mesh2d, mesh3d):
        """forms.mass/stiffness/convection hit the plan path and match the
        reference assembly."""
        rng = np.random.default_rng(2)
        for mesh in (mesh2d, mesh3d):
            h, dim = mesh.elem_h(), mesh.dim
            vel = rng.standard_normal((mesh.n_dofs, dim))
            ref_m = assemble_matrix(mesh, mass_matrix(h, dim))
            ref_k = assemble_matrix(mesh, stiffness_matrix(h, dim))
            vq = forms.field_at_quad(mesh, vel)
            ref_c = assemble_matrix(mesh, convection_matrix(h, dim, vq))
            assert np.abs(forms.mass(mesh) - ref_m).max() < 1e-14
            assert np.abs(forms.stiffness(mesh) - ref_k).max() < 1e-14
            assert np.abs(forms.convection(mesh, vel) - ref_c).max() < 1e-13


class TestStructureSharing:
    def test_numeric_updates_share_csr_structure(self, mesh2d):
        plan = AssemblyPlan(mesh2d)
        A1 = plan.assemble(stiffness_matrix(mesh2d.elem_h(), 2))
        A2 = plan.assemble(mass_matrix(mesh2d.elem_h(), 2))
        assert A1.indices is A2.indices
        assert A1.indptr is A2.indptr
        assert A1.data is not A2.data

    def test_numeric_update_is_deterministic(self, mesh2d):
        plan = AssemblyPlan(mesh2d)
        Ke = stiffness_matrix(mesh2d.elem_h(), 2)
        a = plan.assemble(Ke).data
        b = plan.assemble(Ke).data
        assert np.array_equal(a, b)  # bitwise: fixed summation order

    def test_shape_mismatch_rejected(self, mesh2d):
        plan = AssemblyPlan(mesh2d)
        with pytest.raises(ValueError):
            plan.assemble(np.zeros((3, 4, 4)))


class TestPlanLifetime:
    """A plan lives in its mesh's ``memo``: the same mesh object gets the
    same plan, another mesh its own, and a collected mesh takes its plan
    (and its GMG chain) with it."""

    def test_stale_plan_raises(self):
        """What a plan of another mesh refuses: a batch of the wrong shape,
        and a matrix it did not assemble - even from a same-shaped twin."""
        m1 = Mesh.from_tree(uniform_tree(2, 3))
        plan = get_plan(m1)
        finer = Mesh.from_tree(uniform_tree(2, 4))
        with pytest.raises(ValueError):
            plan.assemble(mass_matrix(finer.elem_h(), 2))
        twin = Mesh.from_tree(uniform_tree(2, 3))  # a "remeshed" twin
        A = get_plan(twin).assemble(mass_matrix(twin.elem_h(), 2))
        with pytest.raises(StaleAssemblyPlanError):
            plan.eliminate(A, twin.boundary_dof_mask())

    def test_cache_rebuilds_per_mesh(self):
        m1 = Mesh.from_tree(uniform_tree(2, 3))
        p1 = get_plan(m1)
        assert get_plan(m1) is p1 and m1.memo["plan"] is p1
        m2 = Mesh.from_tree(uniform_tree(2, 3))  # same tree, another mesh
        assert get_plan(m2) is not p1

    def test_live_meshes_keep_their_plans(self):
        """Five live meshes, five builds; the first plan is still there."""
        meshes = [Mesh.from_tree(uniform_tree(2, 3)) for _ in range(5)]
        with obs.tracing():
            plans = [get_plan(m) for m in meshes]
            again = get_plan(meshes[0])
            built = obs.snapshot()["counters"]["assembly.symbolic"]
        assert built == 5
        assert again is plans[0]

    def test_plan_and_gmg_chain_die_with_the_mesh(self):
        mesh = Mesh.from_tree(uniform_tree(2, 4))
        plan = weakref.ref(get_plan(mesh))
        prolongation = weakref.ref(hierarchy_for(mesh, 2)[0][0])
        assert plan() is not None and prolongation() is not None
        del mesh
        gc.collect()
        assert plan() is None
        assert prolongation() is None

    def test_plan_assemble_matches_after_remesh(self):
        """``get_plan`` keeps tracking the live mesh."""
        m1 = mesh_from_field(interface, 2, max_level=4, min_level=2, threshold=0.2)
        _ = get_plan(m1).assemble(mass_matrix(m1.elem_h(), 2))
        m2 = mesh_from_field(
            interface, 2, max_level=5, min_level=2, threshold=0.1
        )
        Ke = stiffness_matrix(m2.elem_h(), 2)
        got = get_plan(m2).assemble(Ke)
        ref = assemble_matrix(m2, Ke)
        assert np.abs(got - ref).max() < 1e-14


class TestLoadScatter:
    """``AssemblyPlan.scatter_loads`` against its reference
    ``elem_scatter`` (``tests/oracles.py``)."""

    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_matches_elem_scatter(self, mesh2d, mesh3d, k):
        rng = np.random.default_rng(3)
        for mesh in (mesh2d, mesh3d):
            shape = (mesh.n_elems, 1 << mesh.dim) + (() if k is None else (k,))
            be = rng.standard_normal(shape)
            ref = elem_scatter(mesh, be)
            plan = AssemblyPlan(mesh)
            got = plan.scatter_loads(be)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(got, plan.scatter_loads(be))  # bitwise
            assert np.array_equal(got, get_plan(mesh).scatter_loads(be))
            if k is not None:  # columns are independent of their neighbours
                assert np.array_equal(got[:, 0], plan.scatter_loads(be[..., 0]))

    def test_assemble_vector_routes_through_the_plan(self, mesh2d, monkeypatch):
        calls = []
        real = AssemblyPlan.scatter_loads

        def counted(self, be):
            calls.append(self)
            return real(self, be)

        monkeypatch.setattr(AssemblyPlan, "scatter_loads", counted)
        forms.source(mesh2d, np.ones((mesh2d.n_elems, 4)))
        forms.flux_divergence_load(mesh2d, np.ones((mesh2d.n_elems, 4, 2)))
        assert len(calls) == 2
        assert all(plan is get_plan(mesh2d) for plan in calls)

    def test_built_lazily_and_counted_as_symbolic_time(self, mesh2d):
        be = np.ones((mesh2d.n_elems, 4))
        with obs.tracing():
            plan = AssemblyPlan(mesh2d)
            plan.assemble(mass_matrix(mesh2d.elem_h(), 2))
            flat = obs.flatten_spans(obs.snapshot())
            assert flat["assembly.symbolic"]["count"] == 1
            plan.scatter_loads(be)
            plan.scatter_loads(be)
            snap = obs.snapshot()
        assert obs.flatten_spans(snap)["assembly.symbolic"]["count"] == 2
        assert snap["counters"]["assembly.symbolic"] == 1  # plans built
        assert snap["counters"]["assembly.vector"] == 2

    def test_loads_of_another_topology_rejected(self, mesh2d, mesh3d):
        plan = AssemblyPlan(mesh2d)
        for bad in (
            np.zeros((mesh2d.n_elems + 1, 4)),
            np.zeros((mesh3d.n_elems, 8)),
            np.zeros((mesh2d.n_elems, 4, 2, 2)),
            np.zeros(mesh2d.n_elems * 4),
        ):
            with pytest.raises(ValueError):
                plan.scatter_loads(bad)
