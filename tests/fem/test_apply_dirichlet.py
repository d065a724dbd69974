"""``apply_dirichlet`` against the sparse-product formulation it replaced.

``apply_dirichlet`` (``tests/oracles.py``) masks ``A.data`` in one pass; the oracle below is the
old three-line ``keep @ A @ keep + ident``.  Same pattern, same values bit
for bit, operand untouched — on plan-assembled operators of 2D/3D
hanging-node meshes (whose index arrays are shared with every other matrix
of the plan) and on operands the mask cannot take the shortcut for.

``AssemblyPlan.eliminate`` / ``AssemblyPlan.lift`` — the same elimination
and lift through a layout built once per mask, the eliminated couplings
gone from it — are in turn checked against ``eliminate_dirichlet`` /
``lift_dirichlet`` (second half of the file).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chns import forms
from repro.fem.plan import AssemblyPlan, StaleAssemblyPlanError, get_plan
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree
from repro.octree.refine import refine

from ..oracles import apply_dirichlet, eliminate_dirichlet, lift_dirichlet


def oracle(A, b, mask, values=None):
    mask = np.asarray(mask, dtype=bool)
    vals = np.zeros(A.shape[0]) if values is None else np.asarray(values)
    g = np.zeros(A.shape[0])
    g[mask] = vals[mask] if vals.shape == g.shape else vals
    b_bc = b - A @ g
    b_bc[mask] = g[mask]
    keep = sp.diags((~mask).astype(np.float64))
    ident = sp.diags(mask.astype(np.float64))
    A_bc = (keep @ A @ keep + ident).tocsr()
    A_bc.eliminate_zeros()
    return A_bc, b_bc


def hanging_mesh(dim):
    t = uniform_tree(dim, 2)
    targets = t.levels.copy()
    targets[: len(targets) // 3] = 4 if dim == 2 else 3
    mesh = Mesh.from_tree(refine(t, targets))
    assert mesh.nodes.is_hanging.any()
    return mesh


def assert_same_csr(X, Y):
    assert X.shape == Y.shape
    assert np.array_equal(X.indptr, Y.indptr)
    assert np.array_equal(X.indices, Y.indices)
    assert np.array_equal(X.data, Y.data)  # bit for bit


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("operator", ["mass", "stiffness", "momentum"])
def test_matches_sparse_product_oracle_bitwise(dim, operator):
    mesh = hanging_mesh(dim)
    rng = np.random.default_rng(dim)
    if operator == "mass":
        A = forms.mass(mesh)
    elif operator == "stiffness":
        A = forms.stiffness(mesh)
    else:  # a CSR sum: fresh index arrays, not a plan matrix any more
        vel = rng.standard_normal((mesh.n_dofs, dim))
        A = (forms.mass(mesh) / 0.01 + 0.5 * forms.convection(mesh, vel)
             + 0.05 * forms.stiffness(mesh)).tocsr()
    b = rng.standard_normal(mesh.n_dofs)
    values = rng.standard_normal(mesh.n_dofs)
    mask = mesh.boundary_dof_mask()
    before = (A.indptr.copy(), A.indices.copy(), A.data.copy())

    A_bc, b_bc = apply_dirichlet(A, b, mask, values)
    A_ref, b_ref = oracle(A, b, mask, values)

    assert_same_csr(A_bc, A_ref)
    assert np.array_equal(b_bc, b_ref)
    assert np.array_equal(lift_dirichlet(A, b, mask, values), b_ref)
    assert_same_csr(eliminate_dirichlet(A, mask), A_ref)
    # the operand survives, and the result can be edited without reaching it
    for now, was in zip((A.indptr, A.indices, A.data), before):
        assert np.array_equal(now, was)
    for arr in (A_bc.indptr, A_bc.indices, A_bc.data):
        assert not any(np.shares_memory(arr, x)
                       for x in (A.indptr, A.indices, A.data))
    assert np.array_equal(A_bc.diagonal()[mask], np.ones(mask.sum()))


def test_plan_operand_shared_structure_survives():
    """Two matrices of one plan share ``indices``/``indptr``: eliminating
    one must leave the other (``VUSolver.M`` next to ``NSSolver.M``) whole."""
    mesh = hanging_mesh(2)
    M1, M2 = forms.mass(mesh), forms.mass(mesh)
    assert M1.indices is M2.indices or np.shares_memory(M1.indices, M2.indices)
    dense = M2.toarray()
    apply_dirichlet(M1, np.zeros(mesh.n_dofs), mesh.boundary_dof_mask())
    assert np.array_equal(M2.toarray(), dense)
    assert np.array_equal(M1.toarray(), dense)


def test_default_values_scalar_values_and_empty_mask():
    mesh = hanging_mesh(2)
    A = forms.stiffness(mesh) + forms.mass(mesh)
    b = np.arange(mesh.n_dofs, dtype=float)
    mask = mesh.face_dof_mask(0, 0)
    for values in (None, 2.5):
        A_bc, b_bc = apply_dirichlet(A, b, mask, values)
        A_ref, b_ref = oracle(A, b, mask, values)
        assert_same_csr(A_bc, A_ref)
        assert np.array_equal(b_bc, b_ref)
    none = np.zeros(mesh.n_dofs, dtype=bool)
    A_bc, b_bc = apply_dirichlet(A, b, none)
    assert_same_csr(A_bc, oracle(A, b, none)[0])
    assert np.array_equal(b_bc, b)


def test_operands_without_the_shortcut():
    """No stored diagonal on a constrained row, explicit zeros, duplicate
    entries, a non-CSR format: same matrix as the oracle."""
    rng = np.random.default_rng(5)
    n = 30
    A = sp.random(n, n, 0.2, format="lil", random_state=7)
    A.setdiag(0.0)
    A = A.tocsr()
    A.eliminate_zeros()  # no diagonal stored at all
    A.data[::7] = 0.0  # explicit zeros: dropped, as the product dropped them
    mask = rng.random(n) < 0.3
    b = rng.standard_normal(n)
    for operand in (A, A.tocoo(), A.tocsc()):
        A_bc, b_bc = apply_dirichlet(operand, b, mask)
        A_ref, b_ref = oracle(A, b, mask)
        assert np.array_equal(A_bc.toarray(), A_ref.toarray())
        assert A_bc.nnz == A_ref.nnz
        assert np.array_equal(b_bc, b_ref)
    # duplicates on a constrained diagonal must not sum to 2
    dup = sp.csr_matrix((3, 3))
    dup.indptr = np.array([0, 2, 4, 5], dtype=np.int32)
    dup.indices = np.array([0, 0, 1, 2, 2], dtype=np.int32)
    dup.data = np.array([1.0, 2.0, 4.0, 5.0, 6.0])
    A_bc, _ = apply_dirichlet(dup, np.zeros(3), np.array([True, False, False]))
    assert np.array_equal(
        A_bc.toarray(), [[1.0, 0, 0], [0, 4.0, 5.0], [0, 0, 6.0]]
    )
    assert dup.nnz == 5  # the operand kept its duplicates


# ------------------------------------ AssemblyPlan.eliminate / .lift


def plan_operator(mesh, operator, rng):
    """A matrix in the plan's shared CSR layout, as the block solvers build
    them: one ``Ke`` sum, one scatter."""
    if operator == "mass":
        Ke = forms.mass_ke(mesh)
    elif operator == "stiffness":
        Ke = forms.stiffness_ke(mesh)
    else:  # the NS implicit operator
        vq = rng.standard_normal((mesh.n_elems, 1 << mesh.dim, mesh.dim))
        rho_q = rng.uniform(0.3, 1.0, (mesh.n_elems, 1 << mesh.dim))
        Ke = (forms.mass_ke(mesh, rho_q) / 0.01
              + 0.5 * forms.convection_ke(mesh, vq)
              + 0.05 * forms.stiffness_ke(mesh, rho_q))
    return get_plan(mesh).assemble(Ke)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("operator", ["mass", "stiffness", "momentum"])
def test_planned_elimination_is_the_reference_elimination(dim, operator):
    """The compact layout is the reference's: indices, indptr and data bit
    for bit.  The reference drops every zero, the plan the eliminated
    couplings only, so a coupling that is zero by value (the 3D stiffness
    has a few: Q1 edge neighbours) is the one difference, and the
    reference of the pattern (every coupling 1) pins the structure."""
    mesh = hanging_mesh(dim)
    plan = get_plan(mesh)
    rng = np.random.default_rng(20 + dim)
    A = plan_operator(mesh, operator, rng)
    before = A.data.copy()
    valued_zeros = np.count_nonzero(A.data == 0.0)
    assert (valued_zeros > 0) == (dim == 3 and operator == "stiffness")
    pattern = plan.assemble(np.ones(plan.ke_shape))
    for mask in (mesh.boundary_dof_mask(), mesh.face_dof_mask(0, 0),
                 np.zeros(mesh.n_dofs, dtype=bool)):
        A_ref = eliminate_dirichlet(A, mask)
        A_bc = plan.eliminate(A, mask)

        kept = eliminate_dirichlet(pattern, mask)
        assert np.array_equal(A_bc.indptr, kept.indptr)
        assert np.array_equal(A_bc.indices, kept.indices)
        assert A_bc.has_canonical_format
        assert A_bc.indices.dtype == A_bc.indptr.dtype == plan.indices.dtype
        if valued_zeros:
            compact = A_bc.copy()
            compact.eliminate_zeros()
            assert_same_csr(compact, A_ref)
        else:
            assert_same_csr(A_bc, A_ref)
        assert not np.shares_memory(A_bc.data, A.data)
        assert np.array_equal(A.data, before)
        for x in (rng.standard_normal(mesh.n_dofs),
                  rng.standard_normal((mesh.n_dofs, dim))):
            assert np.array_equal(A_bc @ x, A_ref @ x)  # bit for bit
        assert np.array_equal(A_bc.diagonal(), A_ref.diagonal())


def lid_mask_and_values(mesh):
    """``lid_driven_bc``'s mask (every wall) and the x component's values
    (1 on the lid, 0 elsewhere)."""
    from repro.chns.timestepper import lid_driven_bc

    masks, values = lid_driven_bc(mesh)
    return masks[0], values[0]


def jet_mask_and_values(mesh):
    """``jet_inflow_bc``'s mask (every wall but the outflow) and the
    normal component's values (the inflow speed on the inlet, 0
    elsewhere)."""
    from repro.chns.timestepper import jet_inflow_bc

    masks, values = jet_inflow_bc(mesh, 0.2, 2.0)
    return masks[0], values[0]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("operator", ["mass", "momentum"])
def test_planned_lift_is_the_reference_lift(dim, operator):
    """Bit for bit ``lift_dirichlet``: zero, scalar, full-length and
    per-constrained-DOF values, on hanging-node meshes and on the masks of
    the lid-driven cavity and the jet inflow."""
    mesh = hanging_mesh(dim)
    plan = get_plan(mesh)
    rng = np.random.default_rng(30 + dim)
    A = plan_operator(mesh, operator, rng)
    before = A.data.copy()
    b = rng.standard_normal(mesh.n_dofs)
    cases = [(mesh.boundary_dof_mask(), None), (mesh.face_dof_mask(0, 0), None),
             lid_mask_and_values(mesh), jet_mask_and_values(mesh)]
    for mask, given in cases:
        n_bc = int(mask.sum())
        for values in (None, 0.0, np.zeros(mesh.n_dofs), 2.5, -0.0,
                       rng.standard_normal(mesh.n_dofs),
                       rng.standard_normal(n_bc), given):
            got = plan.lift(A, b, mask, values)
            want = lift_dirichlet(A, b, mask, values)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    assert all(np.any(f(mesh)[1] != 0.0)
               for f in (lid_mask_and_values, jet_mask_and_values))
    assert np.array_equal(A.data, before)
    # the operand vector is left alone, a column view is taken as it is
    B = rng.standard_normal((mesh.n_dofs, dim))
    copy = B.copy()
    mask, values = lid_mask_and_values(mesh)
    assert np.array_equal(plan.lift(A, B[:, 1], mask, values),
                          lift_dirichlet(A, B[:, 1].copy(), mask, values))
    assert np.array_equal(B, copy)


def test_one_dirichlet_plan_per_distinct_mask():
    """Keyed on the coerced mask bytes: an int 0/1 mask or a list reuses the
    layout of its bool twin (no second symbolic build), and a lift shares
    the layout of its elimination without counting as one."""
    from repro import obs

    mesh = hanging_mesh(2)
    plan = AssemblyPlan(mesh)
    A = plan.assemble(forms.stiffness_ke(mesh))
    mask = mesh.boundary_dof_mask()
    b = np.ones(mesh.n_dofs)
    with obs.tracing():
        first = plan.eliminate(A, mask)
        for twin in (mask.copy(), mask.astype(np.int64), mask.tolist()):
            assert np.array_equal(plan.eliminate(A, twin).data, first.data)
            plan.lift(A, b, twin, 1.0)
        plan.eliminate(A, ~mask)
        plan.lift(A, b, ~mask)
        plan.lift(A, b, mesh.face_dof_mask(0, 0), 2.0)  # a lift builds too
        snap = obs.snapshot()
    assert obs.flatten_spans(snap)["assembly.symbolic"]["count"] == 3
    assert snap["counters"]["assembly.dirichlet"] == 5


def test_planned_elimination_refuses_foreign_matrices():
    """The slot lists index ``data`` of *this* plan's layout: a matrix of
    another topology, a CSR sum (fresh index arrays) or a compacted matrix
    must raise, never be scattered into."""
    mesh, other = hanging_mesh(2), Mesh.from_tree(uniform_tree(2, 3))
    plan = AssemblyPlan(mesh)
    mask = mesh.boundary_dof_mask()
    A = plan.assemble(forms.mass_ke(mesh))
    foreign = (
        AssemblyPlan(other).assemble(forms.mass_ke(other)),
        (A + A).tocsr(),
        eliminate_dirichlet(A, mask),
        AssemblyPlan(mesh).assemble(forms.mass_ke(mesh)),  # equal, not shared
    )
    b = np.ones(mesh.n_dofs)
    for B in foreign:
        with pytest.raises(StaleAssemblyPlanError):
            plan.eliminate(B, mask)
        with pytest.raises(StaleAssemblyPlanError):
            plan.lift(B, b, mask, 1.0)
    for bad_mask in (mask[:-1], other.boundary_dof_mask(), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            plan.eliminate(A, bad_mask)
        with pytest.raises(ValueError):
            plan.lift(A, b, bad_mask)
