"""Differential tests: every repro.fem.kernels loop source vs its NumPy
reference.

The loop sources are the exact functions Numba compiles
(``python_kernel(name)`` returns them uncompiled), so this suite gives the
JIT path real coverage even on hosts without Numba; where Numba *is*
installed, each test also runs the compiled kernel through the same
assertions.

Contracts under test (DESIGN.md §10):

* CSR scatter: **bit-identical** to the ``np.bincount`` fallback (same
  summation order).
* Elemental-batch / MATVEC kernels: agree with the einsum references to
  1e-14 for float64; float32 at an eps-scaled tolerance (the loop kernels
  accumulate in double, the f32 einsum does not).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fem import kernels
from repro.fem.basis import tabulate
from repro.fem.layout import assemble_matrix_zipped, assemble_vector_zipped
from repro.fem.operators import (
    convection_matrix,
    mass_matrix,
    stiffness_matrix,
    value_at_quad,
)
from repro.fem.plan import get_plan
from repro.mesh.mesh import Mesh
from repro.octree.build import build_tree, uniform_tree

F64_TOL = dict(rtol=1e-14, atol=1e-14)
F32_TOL = dict(rtol=1e-5, atol=1e-6)


def random_mesh(seed, dim, max_level=4, p=0.45):
    rng = np.random.default_rng(seed)

    def pred(anchors, levels):
        return rng.random(len(levels)) < p

    return Mesh.from_tree(build_tree(dim, pred, max_level=max_level, min_level=1))


def corner_refined_mesh(dim, levels=3):
    """Maximally uneven refinement: every element along one corner path is
    split, so every level boundary contributes hanging nodes."""

    def pred(anchors, lvl):
        return (anchors == 0).all(axis=1)

    return Mesh.from_tree(build_tree(dim, pred, max_level=levels, min_level=1))


def one_element_mesh(dim):
    return Mesh.from_tree(uniform_tree(dim, 0))


MESHES = [
    ("hanging2d", lambda: random_mesh(3, 2)),
    ("hanging3d", lambda: random_mesh(4, 3, max_level=3)),
    ("corner2d", lambda: corner_refined_mesh(2)),
    ("corner3d", lambda: corner_refined_mesh(3)),
    ("single2d", lambda: one_element_mesh(2)),
    ("single3d", lambda: one_element_mesh(3)),
]


def impls(name):
    """Every implementation of a kernel available on this host: the pure
    Python source always, plus the njit-compiled version under Numba."""
    out = [("python", kernels.python_kernel(name))]
    if kernels.HAVE_NUMBA:
        out.append(("jit", kernels.compiled(name)))
    return out


def mesh_arrays(mesh, dtype=np.float64):
    dt = np.dtype(dtype)
    _, w, N, dN = kernels._typed_tables(mesh.dim, dt.name)
    h = mesh.elem_h().astype(dt)
    return w, N, dN, h


# ------------------------------------------------------------ elemental Ke


@pytest.mark.parametrize("mesh_name,mk", MESHES, ids=[m[0] for m in MESHES])
class TestElementalKernels:
    def test_ke_mass(self, mesh_name, mk):
        mesh = mk()
        w, N, _, h = mesh_arrays(mesh)
        rng = np.random.default_rng(10)
        cq = rng.standard_normal((mesh.n_elems, len(w)))
        ref = mass_matrix(h, mesh.dim, cq)
        for label, fn in impls("ke_mass"):
            out = np.empty_like(ref)
            fn(w, N, cq, h**mesh.dim, out)
            np.testing.assert_allclose(out, ref, **F64_TOL, err_msg=label)

    def test_ke_stiffness(self, mesh_name, mk):
        mesh = mk()
        w, _, dN, h = mesh_arrays(mesh)
        rng = np.random.default_rng(11)
        cq = rng.standard_normal((mesh.n_elems, len(w)))
        ref = stiffness_matrix(h, mesh.dim, cq)
        for label, fn in impls("ke_stiffness"):
            out = np.empty_like(ref)
            fn(w, dN, cq, h ** (mesh.dim - 2), out)
            np.testing.assert_allclose(out, ref, **F64_TOL, err_msg=label)

    def test_ke_convection(self, mesh_name, mk):
        mesh = mk()
        w, N, dN, h = mesh_arrays(mesh)
        rng = np.random.default_rng(12)
        vq = rng.standard_normal((mesh.n_elems, len(w), mesh.dim))
        ref = convection_matrix(h, mesh.dim, vq)
        for label, fn in impls("ke_convection"):
            out = np.empty_like(ref)
            fn(w, N, dN, vq, h ** (mesh.dim - 1), out)
            np.testing.assert_allclose(out, ref, **F64_TOL, err_msg=label)

    def test_ke_mass_corners(self, mesh_name, mk):
        mesh = mk()
        w, N, _, h = mesh_arrays(mesh)
        nc = 1 << mesh.dim
        rng = np.random.default_rng(13)
        cc = rng.standard_normal((mesh.n_elems, nc))
        ref = mass_matrix(h, mesh.dim, value_at_quad(cc, mesh.dim))
        for label, fn in impls("ke_mass_corners"):
            out = np.empty_like(ref)
            fn(w, N, cc, h**mesh.dim, out)
            np.testing.assert_allclose(out, ref, **F64_TOL, err_msg=label)

    def test_ke_stiffness_corners(self, mesh_name, mk):
        mesh = mk()
        w, N, dN, h = mesh_arrays(mesh)
        nc = 1 << mesh.dim
        rng = np.random.default_rng(14)
        cc = rng.standard_normal((mesh.n_elems, nc))
        ref = stiffness_matrix(h, mesh.dim, value_at_quad(cc, mesh.dim))
        for label, fn in impls("ke_stiffness_corners"):
            out = np.empty_like(ref)
            fn(w, N, dN, cc, h ** (mesh.dim - 2), out)
            np.testing.assert_allclose(out, ref, **F64_TOL, err_msg=label)

    def test_ke_convection_corners(self, mesh_name, mk):
        mesh = mk()
        w, N, dN, h = mesh_arrays(mesh)
        nc = 1 << mesh.dim
        rng = np.random.default_rng(15)
        vc = rng.standard_normal((mesh.n_elems, nc, mesh.dim))
        ref = convection_matrix(h, mesh.dim, value_at_quad(vc, mesh.dim))
        for label, fn in impls("ke_convection_corners"):
            out = np.empty_like(ref)
            fn(w, N, dN, vc, h ** (mesh.dim - 1), out)
            np.testing.assert_allclose(out, ref, **F64_TOL, err_msg=label)

    def test_ke_convection_corners_rho(self, mesh_name, mk):
        mesh = mk()
        w, N, dN, h = mesh_arrays(mesh)
        nc = 1 << mesh.dim
        rng = np.random.default_rng(16)
        vc = rng.standard_normal((mesh.n_elems, nc, mesh.dim))
        rq = 1.0 + rng.random((mesh.n_elems, len(w)))
        ref = convection_matrix(
            h, mesh.dim, value_at_quad(vc, mesh.dim) * rq[..., None]
        )
        for label, fn in impls("ke_convection_corners_rho"):
            out = np.empty_like(ref)
            fn(w, N, dN, vc, rq, h ** (mesh.dim - 1), out)
            np.testing.assert_allclose(out, ref, **F64_TOL, err_msg=label)


@pytest.mark.parametrize("dim", [2, 3])
def test_ke_kernels_float32(dim):
    """float32 kernels vs the float64 reference at eps-scaled tolerance
    (loop kernels accumulate the inner sums in double precision)."""
    mesh = random_mesh(21, dim, max_level=3)
    w, N, dN, h = mesh_arrays(mesh, np.float32)
    nc = 1 << dim
    rng = np.random.default_rng(22)
    cc = rng.standard_normal((mesh.n_elems, nc)).astype(np.float32)
    ref = mass_matrix(
        mesh.elem_h(), dim, value_at_quad(cc.astype(np.float64), dim)
    )
    for label, fn in impls("ke_mass_corners"):
        out = np.empty((mesh.n_elems, nc, nc), dtype=np.float32)
        fn(w, N, cc, h**dim, out)
        np.testing.assert_allclose(out, ref, **F32_TOL, err_msg=label)
    cq = rng.standard_normal((mesh.n_elems, len(w))).astype(np.float32)
    ref = stiffness_matrix(mesh.elem_h(), dim, cq.astype(np.float64))
    for label, fn in impls("ke_stiffness"):
        out = np.empty((mesh.n_elems, nc, nc), dtype=np.float32)
        fn(w, dN, cq, h ** (dim - 2), out)
        np.testing.assert_allclose(out, ref, **F32_TOL, err_msg=label)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(1e-8, 1e8),
    dim=st.sampled_from([2, 3]),
)
def test_ke_mass_hypothesis_coefficients(seed, scale, dim):
    """Random coefficient fields across magnitudes: 1e-14 parity holds,
    relative to the batch magnitude (entries reach 1e8)."""
    mesh = random_mesh(7, dim, max_level=2)
    w, N, _, h = mesh_arrays(mesh)
    rng = np.random.default_rng(seed)
    cq = rng.standard_normal((mesh.n_elems, len(w))) * scale
    ref = mass_matrix(h, dim, cq)
    for label, fn in impls("ke_mass"):
        out = np.empty_like(ref)
        fn(w, N, cq, h**dim, out)
        np.testing.assert_allclose(
            out, ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max(), err_msg=label
        )


# ------------------------------------------------------------- CSR scatter


@pytest.mark.parametrize("mesh_name,mk", MESHES, ids=[m[0] for m in MESHES])
def test_scatter_bit_identical(mesh_name, mk):
    """The scatter kernel reproduces np.bincount **bitwise** (identical
    summation order) — the assembly determinism contract."""
    mesh = mk()
    plan = get_plan(mesh)
    rng = np.random.default_rng(30)
    Ke = rng.standard_normal(plan.ke_shape)
    vals = Ke.ravel()[plan._src] * plan._weight
    ref = np.bincount(plan._slot, weights=vals, minlength=plan.nnz)
    for label, fn in impls("scatter"):
        out = np.zeros(plan.nnz)
        fn(Ke.ravel(), plan._src, plan._weight, plan._slot, out)
        assert np.array_equal(out, ref), label


def test_scatter_csr_entry_point_matches_bincount():
    mesh = random_mesh(31, 2)
    plan = get_plan(mesh)
    rng = np.random.default_rng(32)
    Ke = rng.standard_normal(plan.ke_shape)
    ref = np.bincount(
        plan._slot,
        weights=Ke.ravel()[plan._src] * plan._weight,
        minlength=plan.nnz,
    )
    got = kernels.scatter_csr(
        Ke.ravel(), plan._src, plan._weight, plan._slot, plan.nnz
    )
    assert np.array_equal(got, ref)


# -------------------------------------------------------- MATVEC kernels


@pytest.mark.parametrize("mesh_name,mk", MESHES, ids=[m[0] for m in MESHES])
def test_elem_matvec_vs_einsum(mesh_name, mk):
    mesh = mk()
    rng = np.random.default_rng(40)
    Ke = stiffness_matrix(mesh.elem_h(), mesh.dim) + mass_matrix(
        mesh.elem_h(), mesh.dim, 1.0 + rng.random(mesh.n_elems)
    )
    u = rng.standard_normal(mesh.n_dofs)
    en = mesh.nodes.elem_nodes
    nv = mesh.nodes.P @ u
    ve = np.einsum("eij,ej->ei", Ke, nv[en])
    acc_ref = np.zeros(mesh.n_nodes)
    np.add.at(acc_ref, en.ravel(), ve.ravel())
    ref = mesh.nodes.P.T @ acc_ref
    for label, fn in impls("elem_matvec"):
        acc = np.zeros(mesh.n_nodes)
        fn(Ke, en, nv, acc)
        np.testing.assert_allclose(
            mesh.nodes.P.T @ acc, ref, **F64_TOL, err_msg=label
        )


@pytest.mark.parametrize("dim", [2, 3])
def test_mf_stiffness_vs_loop(dim):
    mesh = random_mesh(41, dim, max_level=3)
    _, w, _, dN = tabulate(dim)
    en = mesh.nodes.elem_nodes
    h = mesh.elem_h()
    rng = np.random.default_rng(42)
    nv = rng.standard_normal(mesh.n_nodes)
    coeff = 1.7
    ref = np.zeros(mesh.n_nodes)
    for conn, he in zip(en, h):
        Ke = stiffness_matrix(he[None], dim, coeff)[0]
        ref[conn] += Ke @ nv[conn]
    for label, fn in impls("mf_stiffness"):
        acc = np.zeros(mesh.n_nodes)
        fn(en, nv, w, dN, h.astype(np.float64) ** (dim - 2), coeff, acc)
        np.testing.assert_allclose(acc, ref, **F64_TOL, err_msg=label)


# ----------------------------------------------------- zipped GEMM kernels


@pytest.mark.parametrize("dim,ndof", [(2, 1), (2, 3), (3, 2)])
def test_vec_zipped_vs_fallback(dim, ndof):
    mesh = random_mesh(50, dim, max_level=3)
    _, w, N, _ = tabulate(dim)
    rng = np.random.default_rng(51)
    cq = rng.standard_normal((mesh.n_elems, ndof, len(w)))
    h = mesh.elem_h()
    with kernels.fallback_only():
        ref = assemble_vector_zipped(cq, h, dim)
    for label, fn in impls("vec_zipped"):
        out = np.empty_like(ref)
        fn(w, N, cq, h**dim, out)
        np.testing.assert_allclose(out, ref, **F64_TOL, err_msg=label)


@pytest.mark.parametrize("dim,ndof", [(2, 1), (2, 3), (3, 2)])
def test_mat_zipped_vs_fallback(dim, ndof):
    mesh = random_mesh(52, dim, max_level=2)
    _, w, N, _ = tabulate(dim)
    rng = np.random.default_rng(53)
    cq = rng.standard_normal((mesh.n_elems, ndof, ndof, len(w)))
    h = mesh.elem_h()
    with kernels.fallback_only():
        ref = assemble_matrix_zipped(cq, h, dim)
    for label, fn in impls("mat_zipped"):
        out = np.empty_like(ref)
        fn(w, N, cq, h**dim, out)
        np.testing.assert_allclose(out, ref, **F64_TOL, err_msg=label)


# ----------------------------------------------- entry points and registry


class TestEntryPointFallbacks:
    """Without JIT the public entry points must be *bit-identical* to the
    seed operators path (they are the same code)."""

    def test_mass_ke_matches_operators(self):
        mesh = random_mesh(60, 2)
        with kernels.fallback_only():
            got = kernels.mass_ke(mesh.elem_h(), 2, 2.5)
        assert np.array_equal(got, mass_matrix(mesh.elem_h(), 2, 2.5))

    def test_convection_corners_matches_operators(self):
        mesh = random_mesh(61, 2)
        rng = np.random.default_rng(62)
        vel = rng.standard_normal((mesh.n_dofs, 2))
        vc = mesh.elem_gather(vel)
        with kernels.fallback_only():
            got = kernels.convection_ke_corners(mesh.elem_h(), 2, vc)
        ref = convection_matrix(mesh.elem_h(), 2, value_at_quad(vc, 2))
        assert np.array_equal(got, ref)


class TestRegistry:
    def test_kernel_key(self):
        assert kernels.kernel_key(2) == ("quad", 4, "float64")
        assert kernels.kernel_key(3, 2, np.float32) == ("hex", 16, "float32")

    def test_warm_idempotent(self):
        k1 = kernels.warm(2)
        k2 = kernels.warm(2)
        assert k1 == k2 == ("quad", 4, "float64")

    def test_kernel_names_cover_hot_paths(self):
        names = kernels.kernel_names()
        for required in (
            "ke_mass",
            "ke_stiffness",
            "ke_convection",
            "ke_mass_corners",
            "ke_stiffness_corners",
            "ke_convection_corners",
            "ke_convection_corners_rho",
            "scatter",
            "elem_matvec",
            "mf_stiffness",
            "vec_zipped",
            "mat_zipped",
        ):
            assert required in names

    def test_repro_jit_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        assert not kernels.jit_enabled()

    def test_fallback_only_nests(self):
        before = kernels.jit_enabled()
        with kernels.fallback_only():
            assert not kernels.jit_enabled()
            with kernels.fallback_only():
                assert not kernels.jit_enabled()
            assert not kernels.jit_enabled()
        assert kernels.jit_enabled() == before

    def test_selection_counters(self):
        kernels.reset_stats()
        mesh = random_mesh(63, 2, max_level=2)
        with kernels.fallback_only():
            kernels.mass_ke(mesh.elem_h(), 2)
        assert kernels.STATS["fallback"] == 1
        assert kernels.STATS["jit_hits"] == 0
        if kernels.HAVE_NUMBA:
            kernels.reset_stats()
            kernels.mass_ke(mesh.elem_h(), 2)
            assert kernels.STATS["jit_hits"] == 1

    def test_selection_obs_counter(self):
        obs.enable()
        try:
            mesh = random_mesh(64, 2, max_level=2)
            with kernels.fallback_only():
                kernels.mass_ke(mesh.elem_h(), 2)
            snap = obs.snapshot()
        finally:
            obs.disable()
        assert snap["counters"].get("kernels.fallback", 0) >= 1

    def test_provenance_shape(self):
        p = kernels.provenance()
        assert set(p) >= {
            "have_numba",
            "numba_version",
            "jit_enabled",
            "warmed_keys",
            "stats",
        }
        assert isinstance(p["have_numba"], bool)


class TestBoundKernel:
    def test_stale_generation_raises(self):
        m1 = random_mesh(70, 2, max_level=2)
        m2 = random_mesh(71, 2, max_level=2)
        k = kernels.get_kernel(m1)
        rng = np.random.default_rng(72)
        Ke = mass_matrix(m1.elem_h(), 2)
        u = rng.standard_normal(m1.n_dofs)
        k.check(m1)  # same generation: fine
        assert k.apply_for(m1, Ke, u).shape == (m1.n_dofs,)
        with pytest.raises(kernels.StaleKernelError):
            k.check(m2)
        with pytest.raises(kernels.StaleKernelError):
            k.apply_for(m2, Ke, u)

    def test_get_kernel_is_cached_per_generation(self):
        mesh = random_mesh(73, 2, max_level=2)
        assert kernels.get_kernel(mesh) is kernels.get_kernel(mesh)

    def test_apply_matches_reference_matvec(self):
        mesh = random_mesh(74, 2)
        rng = np.random.default_rng(75)
        Ke = stiffness_matrix(mesh.elem_h(), 2)
        u = rng.standard_normal(mesh.n_dofs)
        en = mesh.nodes.elem_nodes
        nv = mesh.nodes.P @ u
        ve = np.einsum("eij,ej->ei", Ke, nv[en])
        acc = np.zeros(mesh.n_nodes)
        np.add.at(acc, en.ravel(), ve.ravel())
        ref = mesh.nodes.P.T @ acc
        got = kernels.get_kernel(mesh).apply_for(mesh, Ke, u)
        np.testing.assert_allclose(got, ref, **F64_TOL)

    def test_unknown_kernel_name_rejected(self):
        mesh = random_mesh(76, 2, max_level=2)
        with pytest.raises(ValueError):
            kernels.BoundKernel(mesh, "not_a_kernel")
