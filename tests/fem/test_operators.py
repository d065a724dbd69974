"""Tests for basis functions, elemental operators, MATVEC, and assembly."""

import numpy as np
import pytest

from repro.fem.basis import (
    corner_bits,
    gauss_points,
    quad_point_coords,
    reference_tensors,
    shape_functions,
    shape_gradients,
    tabulate,
)
from repro.fem.operators import (
    convection_matrix,
    gradient_at_quad,
    gradient_load_vector,
    load_vector,
    mass_matrix,
    stiffness_matrix,
    value_at_quad,
)
from repro.fem.plan import get_plan
from repro.la.krylov import cg
from repro.la.precond import JacobiPreconditioner
from repro.mesh.mesh import Mesh
from repro.octree.build import build_tree, uniform_tree
from repro.octree.refine import refine

from ..oracles import apply_dirichlet, apply_elemental, assemble_matrix


def random_mesh(seed, dim, max_level=4, p=0.45):
    rng = np.random.default_rng(seed)

    def pred(anchors, levels):
        return rng.random(len(levels)) < p

    return Mesh.from_tree(build_tree(dim, pred, max_level=max_level, min_level=1))


class TestBasis:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_partition_of_unity(self, dim):
        pts = np.random.default_rng(0).random((20, dim))
        N = shape_functions(pts, dim)
        assert np.allclose(N.sum(axis=1), 1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_kronecker_at_corners(self, dim):
        corners = corner_bits(dim).astype(np.float64)
        N = shape_functions(corners, dim)
        assert np.allclose(N, np.eye(1 << dim))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradients_sum_to_zero(self, dim):
        pts = np.random.default_rng(1).random((10, dim))
        dN = shape_gradients(pts, dim)
        assert np.allclose(dN.sum(axis=1), 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradient_finite_difference(self, dim):
        rng = np.random.default_rng(2)
        pts = rng.random((5, dim)) * 0.8 + 0.1
        dN = shape_gradients(pts, dim)
        eps = 1e-6
        for axis in range(dim):
            p1 = pts.copy()
            p1[:, axis] += eps
            num = (shape_functions(p1, dim) - shape_functions(pts, dim)) / eps
            assert np.allclose(num, dN[:, :, axis], atol=1e-5)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_quadrature_weights(self, dim):
        _, w = gauss_points(dim)
        assert np.isclose(w.sum(), 1.0)

    def test_quadrature_exactness_cubic(self):
        # 2-pt Gauss integrates cubics exactly on [0,1].
        pts, w = gauss_points(1) if False else gauss_points(2)
        # use dim=2 grid: integrate x^3 * y over [0,1]^2 = 1/8
        val = float(np.sum(w * pts[:, 0] ** 3 * pts[:, 1]))
        assert np.isclose(val, 1.0 / 8.0)

    def test_quad_point_coords(self):
        anchors = np.array([[0.0, 0.0], [0.5, 0.5]])
        sizes = np.array([0.5, 0.25])
        q = quad_point_coords(anchors, sizes, 2)
        assert q.shape[0] == 2
        assert np.all(q[0] >= 0) and np.all(q[0] <= 0.5)
        assert np.all(q[1] >= 0.5) and np.all(q[1] <= 0.75)


class TestElementalOperators:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_mass_total(self, dim):
        h = np.array([0.5, 0.25])
        Me = mass_matrix(h, dim)
        # sum_ij M_ij = element volume
        assert np.allclose(Me.sum(axis=(1, 2)), h**dim)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stiffness_nullspace(self, dim):
        h = np.array([0.5])
        Ke = stiffness_matrix(h, dim)
        ones = np.ones(1 << dim)
        assert np.allclose(Ke[0] @ ones, 0.0, atol=1e-14)

    def test_stiffness_2d_reference_values(self):
        # Classic bilinear stiffness on a unit square: diag 2/3.
        Ke = stiffness_matrix(np.array([1.0]), 2)[0]
        assert np.allclose(np.diag(Ke), 2.0 / 3.0)
        assert np.allclose(Ke, Ke.T)

    def test_variable_coefficient_scaling(self):
        h = np.array([0.5])
        K1 = stiffness_matrix(h, 2, coeff=1.0)
        K3 = stiffness_matrix(h, 2, coeff=3.0)
        assert np.allclose(K3, 3.0 * K1)

    def test_convection_skew_structure(self):
        # For constant velocity, row sums of C are v·∫∇N_j which is zero
        # against the constant: C @ 1 = ∫ N_i v·∇(1) = 0 is false; instead
        # 1^T C = ∫ v·∇N_j integrates to a boundary term; check total sum 0.
        h = np.array([1.0])
        vq = np.ones((1, 4, 2))
        C = convection_matrix(h, 2, vq)[0]
        assert np.isclose(C.sum(), 0.0, atol=1e-14)

    def test_load_vector_constant(self):
        h = np.array([0.5])
        be = load_vector(h, 2, 2.0)
        assert np.isclose(be.sum(), 2.0 * 0.25)

    def test_value_and_gradient_at_quad(self):
        # Linear field on one element: gradient constant and exact.
        h = np.array([0.5])
        corners = corner_bits(2).astype(np.float64) * 0.5  # physical coords
        vals = (3.0 * corners[:, 0] - 2.0 * corners[:, 1])[None, :]
        vq = value_at_quad(vals, 2)
        gq = gradient_at_quad(vals, h, 2)
        assert np.allclose(gq[..., 0], 3.0)
        assert np.allclose(gq[..., 1], -2.0)
        pts, _, _, _ = tabulate(2)
        expect = 3.0 * pts[:, 0] * 0.5 - 2.0 * pts[:, 1] * 0.5
        assert np.allclose(vq[0], expect)


# ---------------------------------------------------------------- oracles
# Explicit per-element, per-quad-point loops: what every batched GEMM in
# ``repro.fem.operators`` must reproduce.  All arithmetic is float64; the
# tolerance is a few ulps of the largest entry of the batch.

ULPS = 64 * np.finfo(np.float64).eps


def assert_batch_close(out, ref):
    assert out.dtype == np.float64 and out.shape == ref.shape
    np.testing.assert_allclose(out, ref, rtol=0, atol=ULPS * np.abs(ref).max())


def coeff_at(coeff, e, q):
    c = np.asarray(coeff, dtype=np.float64)
    return float(c if c.ndim == 0 else c[e] if c.ndim == 1 else c[e, q])


def loop_matrix(kind, h, dim, sample):
    """``kind`` in mass/stiffness/convection; ``sample`` is the coefficient
    (scalar, (e,), (e, nq)) or, for convection, velocities (e, nq, dim)."""
    _, w, N, dN = tabulate(dim)
    nq, nc = N.shape
    out = np.zeros((len(h), nc, nc))
    for e in range(len(h)):
        for q in range(nq):
            for i in range(nc):
                for j in range(nc):
                    if kind == "mass":
                        v = coeff_at(sample, e, q) * N[q, i] * N[q, j] * h[e] ** dim
                    elif kind == "stiffness":
                        v = coeff_at(sample, e, q) * sum(
                            dN[q, i, d] * dN[q, j, d] for d in range(dim)
                        ) * h[e] ** (dim - 2)
                    else:
                        v = N[q, i] * sum(
                            float(sample[e, q, d]) * dN[q, j, d] for d in range(dim)
                        ) * h[e] ** (dim - 1)
                    out[e, i, j] += w[q] * v
    return out


def loop_load(h, dim, f):
    _, w, N, _ = tabulate(dim)
    out = np.zeros((len(h), N.shape[1]))
    for e in range(len(h)):
        for q in range(len(w)):
            for i in range(N.shape[1]):
                out[e, i] += w[q] * coeff_at(f, e, q) * N[q, i] * h[e] ** dim
    return out


def loop_gradient_load(h, dim, flux):
    _, w, _, dN = tabulate(dim)
    out = np.zeros((len(h), dN.shape[1]))
    for e in range(len(h)):
        for q in range(len(w)):
            for i in range(dN.shape[1]):
                out[e, i] += w[q] * h[e] ** (dim - 1) * sum(
                    float(flux[e, q, d]) * dN[q, i, d] for d in range(dim)
                )
    return out


def loop_value(vals, dim):
    """(e, nc[, k]) -> (e, nq[, k])."""
    _, _, N, _ = tabulate(dim)
    out = np.zeros((vals.shape[0], N.shape[0]) + vals.shape[2:])
    for e in range(vals.shape[0]):
        for q in range(N.shape[0]):
            for i in range(N.shape[1]):
                out[e, q] += N[q, i] * vals[e, i].astype(np.float64)
    return out


def loop_gradient(vals, h, dim):
    """(e, nc[, k]) -> (e, nq, dim[, k])."""
    _, _, _, dN = tabulate(dim)
    out = np.zeros((vals.shape[0], dN.shape[0], dim) + vals.shape[2:])
    for e in range(vals.shape[0]):
        for q in range(dN.shape[0]):
            for d in range(dim):
                for i in range(dN.shape[1]):
                    out[e, q, d] += dN[q, i, d] * vals[e, i].astype(np.float64) / h[e]
    return out


H = np.array([0.5, 0.25, 0.25, 0.125, 1.0])
N_ELEMS = len(H)


def coefficient(kind, dim, rng):
    nq = 1 << dim
    if kind == "scalar":
        return 2.75
    if kind == "per_element":
        return rng.standard_normal(N_ELEMS) * 1e3
    return rng.standard_normal((N_ELEMS, nq)) * 1e3


@pytest.mark.parametrize("dim", [2, 3])
class TestOperatorsAgainstLoopOracle:
    @pytest.mark.parametrize("coeff_kind", ["scalar", "per_element", "quad"])
    def test_coefficient_operators(self, dim, coeff_kind):
        c = coefficient(coeff_kind, dim, np.random.default_rng(dim))
        assert_batch_close(mass_matrix(H, dim, c), loop_matrix("mass", H, dim, c))
        assert_batch_close(
            stiffness_matrix(H, dim, c), loop_matrix("stiffness", H, dim, c)
        )
        assert_batch_close(load_vector(H, dim, c), loop_load(H, dim, c))

    def test_vector_sampled_operators(self, dim):
        vq = np.random.default_rng(10 + dim).standard_normal((N_ELEMS, 1 << dim, dim))
        assert_batch_close(
            convection_matrix(H, dim, vq), loop_matrix("convection", H, dim, vq)
        )
        transposed = convection_matrix(H, dim, vq, transpose=True)
        assert transposed.flags.c_contiguous
        assert np.array_equal(
            transposed, np.swapaxes(convection_matrix(H, dim, vq), 1, 2)
        )
        assert_batch_close(
            gradient_load_vector(H, dim, vq), loop_gradient_load(H, dim, vq)
        )

    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_fields_at_quad(self, dim, k):
        shape = (N_ELEMS, 1 << dim) + (() if k is None else (k,))
        vals = np.random.default_rng(20 + dim).standard_normal(shape) * 50.0
        assert_batch_close(value_at_quad(vals, dim), loop_value(vals, dim))
        assert_batch_close(gradient_at_quad(vals, H, dim), loop_gradient(vals, H, dim))

    def test_non_contiguous_inputs(self, dim):
        """NS and VU pass ``grad_p_q[..., i]`` slices to ``load_vector``;
        strided batches and fields must contract like their copies."""
        nq = nc = 1 << dim
        rng = np.random.default_rng(30 + dim)
        grad_q = rng.standard_normal((N_ELEMS, nq, dim))
        for i in range(dim):
            f = grad_q[..., i]
            assert not f.flags.c_contiguous
            assert_batch_close(load_vector(H, dim, f), loop_load(H, dim, f.copy()))
            assert_batch_close(
                mass_matrix(H, dim, f), loop_matrix("mass", H, dim, f.copy())
            )
        vq = rng.standard_normal((dim, nq, 2 * N_ELEMS)).T[::2]  # (e, nq, dim)
        assert not vq.flags.c_contiguous
        assert_batch_close(
            convection_matrix(H, dim, vq),
            loop_matrix("convection", H, dim, vq.copy()),
        )
        assert_batch_close(
            gradient_load_vector(H, dim, vq), loop_gradient_load(H, dim, vq.copy())
        )
        for vals in (
            rng.standard_normal((nc, N_ELEMS)).T,
            rng.standard_normal((N_ELEMS, nc, 4))[..., ::2],
        ):
            assert not vals.flags.c_contiguous
            assert_batch_close(value_at_quad(vals, dim), loop_value(vals.copy(), dim))
            assert_batch_close(
                gradient_at_quad(vals, H, dim), loop_gradient(vals.copy(), H, dim)
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_narrow_dtypes_compute_in_float64(self, dim, dtype):
        """float32 / integer samples are exact in float64, so the result is
        the float64 oracle's, not a float32-precision one."""
        nq = nc = 1 << dim
        rng = np.random.default_rng(40 + dim)

        def draw(*shape):
            return (rng.standard_normal(shape) * 100).astype(dtype)

        c, vq = draw(N_ELEMS, nq), draw(N_ELEMS, nq, dim)
        h_in = H.astype(np.float32) if dtype == np.float32 else H
        assert_batch_close(mass_matrix(h_in, dim, c), loop_matrix("mass", H, dim, c))
        assert_batch_close(
            stiffness_matrix(h_in, dim, c), loop_matrix("stiffness", H, dim, c)
        )
        assert_batch_close(load_vector(h_in, dim, c), loop_load(H, dim, c))
        assert_batch_close(
            convection_matrix(h_in, dim, vq), loop_matrix("convection", H, dim, vq)
        )
        assert_batch_close(
            gradient_load_vector(h_in, dim, vq), loop_gradient_load(H, dim, vq)
        )
        for vals in (draw(N_ELEMS, nc), draw(N_ELEMS, nc, 2)):
            assert_batch_close(value_at_quad(vals, dim), loop_value(vals, dim))
            assert_batch_close(
                gradient_at_quad(vals, h_in, dim), loop_gradient(vals, H, dim)
            )

    def test_empty_batch(self, dim):
        h0, nq = np.zeros(0), 1 << dim
        assert mass_matrix(h0, dim).shape == (0, nq, nq)
        assert convection_matrix(h0, dim, np.zeros((0, nq, dim))).shape == (0, nq, nq)
        assert load_vector(h0, dim, np.zeros((0, nq))).shape == (0, nq)
        assert gradient_at_quad(np.zeros((0, nq, 2)), h0, dim).shape == (0, nq, dim, 2)
        for k in (1, 2, 3):  # column inputs
            assert value_at_quad(np.zeros((0, nq, k)), dim).shape == (0, nq, k)
            assert load_vector(h0, dim, np.zeros((0, nq, k))).shape == (0, nq, k)
            flux = np.zeros((0, nq, dim, k))
            assert gradient_load_vector(h0, dim, flux).shape == (0, nq, k)


def matmul_oracle(kind, x, h, dim):
    """The batched ``np.matmul`` form the column kernels of
    ``value_at_quad``, ``gradient_at_quad`` and ``load_vector`` replaced:
    the table times each element's ``(n, k)`` block."""
    ref = reference_tensors(dim)
    e, k, nq = len(x), x.shape[-1], 1 << dim
    h = np.asarray(h, dtype=np.float64)
    if kind == "value":
        return np.matmul(tabulate(dim)[2], x)
    if kind == "gradient":
        g = np.matmul(ref.grad, x)
        g /= h[:, None, None]
        return g.reshape(e, nq, dim, k)
    be = np.matmul(ref.load.T, x)
    be *= (h**dim)[:, None, None]
    return be


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
class TestColumnKernels:
    """``k`` columns in a trailing axis are one GEMM on ``kron(table, I_k)``:
    bit for bit the batched ``matmul`` for ``k >= 2``; for ``k = 1`` (the
    table itself, the one-column path) within 1e-13.  ``gradient_load_vector``
    had no column form: its columns are the one-column kernel per column
    (the loop NS's capillary term ran), to rounding."""

    @staticmethod
    def _check(out, ref, k):
        assert out.shape == ref.shape
        if k == 1:
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        else:
            assert np.array_equal(out, ref)

    def test_against_batched_matmul(self, dim, k):
        nq = nc = 1 << dim
        rng = np.random.default_rng(50 + 10 * dim + k)
        vals = rng.standard_normal((N_ELEMS, nc, k)) * 50.0
        f_q = rng.standard_normal((N_ELEMS, nq, k)) * 50.0
        flux = rng.standard_normal((N_ELEMS, nq, dim, k)) * 50.0
        self._check(value_at_quad(vals, dim), matmul_oracle("value", vals, H, dim), k)
        self._check(
            gradient_at_quad(vals, H, dim), matmul_oracle("gradient", vals, H, dim), k
        )
        self._check(load_vector(H, dim, f_q), matmul_oracle("load", f_q, H, dim), k)

    def test_columns_are_the_one_column_kernel(self, dim, k):
        rng = np.random.default_rng(60 + 10 * dim + k)
        nq = nc = 1 << dim
        vals = rng.standard_normal((N_ELEMS, nc, k)) * 50.0
        flux = rng.standard_normal((N_ELEMS, nq, dim, k)) * 50.0
        vq, gq = value_at_quad(vals, dim), gradient_at_quad(vals, H, dim)
        be = gradient_load_vector(H, dim, flux)
        assert be.shape == (N_ELEMS, nc, k)
        for c in range(k):
            col = np.ascontiguousarray(vals[..., c])
            assert_batch_close(vq[..., c], value_at_quad(col, dim))
            assert_batch_close(gq[..., c], gradient_at_quad(col, H, dim))
            flux_c = np.ascontiguousarray(flux[..., c])
            assert_batch_close(be[..., c], gradient_load_vector(H, dim, flux_c))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [None, 2, 3])
def test_elem_gather_is_fancy_indexing(dim, k):
    m = random_mesh(7, dim, max_level=3)
    assert m.nodes.is_hanging.any()
    shape = (m.n_dofs,) + (() if k is None else (k,))
    u = np.random.default_rng(8).standard_normal(shape)
    ref = m.nodes.node_values(u)[m.nodes.elem_nodes]
    out = m.elem_gather(u)
    assert out.shape == ref.shape and np.array_equal(out, ref)


@pytest.mark.parametrize("dim", [2, 3])
def test_cached_tables_are_read_only(dim):
    """``tabulate`` and ``reference_tensors`` are ``lru_cache``d and handed
    out by reference: one caller must not be able to corrupt every later
    assembly in the process."""
    for table in (*tabulate(dim), *reference_tensors(dim)):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0
    assert reference_tensors(dim) is reference_tensors(dim)
    ones = np.ones(1 << dim)
    assert np.allclose(stiffness_matrix(np.array([0.5]), dim)[0] @ ones, 0.0, atol=1e-14)


class TestAssemblyAndMatvec:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matvec_equals_assembled(self, dim):
        m = random_mesh(0, dim, max_level=3)
        Ke = stiffness_matrix(m.elem_h(), dim) + mass_matrix(m.elem_h(), dim)
        A = assemble_matrix(m, Ke)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(m.n_dofs)
        assert np.allclose(A @ u, apply_elemental(m, Ke, u), atol=1e-12)

    def test_assembled_symmetric_psd(self):
        m = random_mesh(2, 2)
        A = assemble_matrix(m, stiffness_matrix(m.elem_h(), 2))
        d = (A - A.T).toarray()
        assert np.allclose(d, 0.0, atol=1e-13)
        evals = np.linalg.eigvalsh(A.toarray())
        assert evals.min() > -1e-10

    def test_mass_matrix_integrates_volume(self):
        m = random_mesh(3, 2)
        M = assemble_matrix(m, mass_matrix(m.elem_h(), 2))
        ones = np.ones(m.n_dofs)
        assert np.isclose(ones @ (M @ ones), 1.0)  # unit cube volume

    def test_stiffness_annihilates_linears_interior(self):
        """K u = 0 in the interior for affine u, even across hanging nodes
        (the FEM patch test)."""
        m = random_mesh(4, 2)
        Ke = stiffness_matrix(m.elem_h(), 2)
        u = m.interpolate(lambda x: 2 * x[:, 0] + 3 * x[:, 1] - 1)
        r = apply_elemental(m, Ke, u)
        interior = ~m.boundary_dof_mask()
        assert np.allclose(r[interior], 0.0, atol=1e-12)

    def test_dirichlet_elimination(self):
        m = Mesh.from_tree(uniform_tree(2, 2))
        A = assemble_matrix(m, stiffness_matrix(m.elem_h(), 2))
        b = get_plan(m).scatter_loads(load_vector(m.elem_h(), 2, 1.0))
        mask = m.boundary_dof_mask()
        gvals = np.zeros(m.n_dofs)
        A_bc, b_bc = apply_dirichlet(A, b, mask, gvals)
        x = np.linalg.solve(A_bc.toarray(), b_bc)
        assert np.allclose(x[mask], 0.0)
        assert x[~mask].max() > 0  # Poisson with positive source


class TestPoissonConvergence:
    def _solve_poisson(self, level):
        """-Δu = f on the unit square, u = g on boundary, manufactured
        u = sin(πx) sin(πy)."""
        m = Mesh.from_tree(uniform_tree(2, level))
        h = m.elem_h()
        Ke = stiffness_matrix(h, 2)

        def u_exact(x):
            return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

        qp = quad_point_coords(
            m.tree.anchors / float(m.tree.anchors.max() + m.tree.sizes()[0]),
            h,
            2,
        )
        # Use precise quad coords in unit cube:
        from repro.octree import morton

        scale = float(1 << morton.MAX_DEPTH)
        qp = quad_point_coords(m.tree.anchors / scale, h, 2)
        f = 2 * np.pi**2 * np.sin(np.pi * qp[..., 0]) * np.sin(np.pi * qp[..., 1])
        b = get_plan(m).scatter_loads(load_vector(h, 2, f))
        A = assemble_matrix(m, Ke)
        mask = m.boundary_dof_mask()
        A_bc, b_bc = apply_dirichlet(A, b, mask, np.zeros(m.n_dofs))
        res = cg(A_bc, b_bc, M=JacobiPreconditioner(A_bc), tol=1e-12, maxiter=2000)
        assert res.converged
        err = res.x - u_exact(m.dof_xy())
        return float(np.max(np.abs(err)))

    def test_second_order_convergence(self):
        e3 = self._solve_poisson(3)
        e4 = self._solve_poisson(4)
        rate = np.log2(e3 / e4)
        assert 1.7 < rate < 2.3

    def test_adaptive_mesh_poisson_exact_for_quadratic_rhs(self):
        """Solve on an adaptive mesh and check vs a fine uniform solution."""
        m = random_mesh(7, 2, max_level=5)
        h = m.elem_h()
        A = assemble_matrix(m, stiffness_matrix(h, 2))
        b = get_plan(m).scatter_loads(load_vector(h, 2, 1.0))
        mask = m.boundary_dof_mask()
        A_bc, b_bc = apply_dirichlet(A, b, mask, np.zeros(m.n_dofs))
        res = cg(A_bc, b_bc, M=JacobiPreconditioner(A_bc), tol=1e-11, maxiter=4000)
        assert res.converged
        # Compare center value against the known series solution ~0.07367.
        center = m.evaluate_at(res.x, np.array([[0.5, 0.5]]))[0]
        assert abs(center - 0.07367) < 5e-3
