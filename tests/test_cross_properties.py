"""Cross-cutting property tests (hypothesis) over fast kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chns.free_energy import mobility, psi, psi_prime
from repro.fem.layout import (
    assemble_matrix_strided,
    assemble_matrix_zipped,
    assemble_vector_strided,
    assemble_vector_zipped,
    unzip_matrix,
    unzip_vector,
    zip_matrix,
    zip_vector,
)
from repro.mesh.nodes import pack_points, unpack_points
from repro.octree import morton


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_elems=st.integers(1, 20),
    ndof=st.integers(1, 5),
    nn=st.sampled_from([4, 8]),
)
def test_zip_unzip_vector_roundtrip(seed, n_elems, ndof, nn):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_elems, nn * ndof))
    assert np.array_equal(unzip_vector(zip_vector(v, ndof)), v)
    # zip really groups DOFs: row d of the zipped view is the strided slice.
    z = zip_vector(v, ndof)
    for d in range(ndof):
        assert np.array_equal(z[:, d, :], v[:, d::ndof])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ndof=st.integers(1, 4),
    nn=st.sampled_from([4, 8]),
)
def test_zip_unzip_matrix_roundtrip(seed, ndof, nn):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, nn * ndof, nn * ndof))
    assert np.array_equal(unzip_matrix(zip_matrix(A, ndof)), A)
    z = zip_matrix(A, ndof)
    for di in range(ndof):
        for dj in range(ndof):
            assert np.array_equal(z[:, di, dj], A[:, di::ndof, dj::ndof])


@pytest.mark.parametrize("dim,ndof", [(2, 1), (2, 3), (3, 2)])
def test_zipped_assembly_matches_strided(dim, ndof):
    """Figs. 2-3 compare the speed of the two layouts, never their values."""
    rng = np.random.default_rng(51)
    h = rng.uniform(0.1, 1.0, 6)
    cv = rng.standard_normal((6, ndof, 1 << dim))
    cm = rng.standard_normal((6, ndof, ndof, 1 << dim))
    np.testing.assert_allclose(
        assemble_vector_zipped(cv, h, dim),
        assemble_vector_strided(cv, h, dim),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        assemble_matrix_zipped(cm, h, dim),
        assemble_matrix_strided(cm, h, dim),
        atol=1e-14,
    )


@settings(max_examples=50, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 10**6),
)
def test_pack_points_is_injective(dim, seed):
    rng = np.random.default_rng(seed)
    hi = 1 << morton.MAX_DEPTH
    pts = rng.integers(0, hi + 1, size=(200, dim))
    keys = pack_points(pts, dim)
    assert np.array_equal(unpack_points(keys, dim), pts)
    uniq_pts = len(np.unique(pts, axis=0))
    assert len(np.unique(keys)) == uniq_pts


@settings(max_examples=50, deadline=None)
@given(phi=st.floats(-2.0, 2.0))
def test_free_energy_pointwise_properties(phi):
    assert psi(phi) >= 0.0
    assert mobility(phi) > 0.0
    # psi' has the right sign toward the nearest well inside (-1, 1).
    if 0 < phi < 1:
        assert psi_prime(phi) <= 0.0  # pushes phi up toward +1
    if -1 < phi < 0:
        assert psi_prime(phi) >= 0.0


@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    lev=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
def test_morton_neighbors_are_distinct(dim, lev, seed):
    """Face-neighbor anchors of an octant never alias the octant itself."""
    from repro.octree.neighbors import face_neighbor_anchors

    rng = np.random.default_rng(seed)
    cell = rng.integers(0, 1 << lev, size=dim)
    size = 1 << (morton.MAX_DEPTH - lev)
    anchor = (cell * size)[None]
    out, inside = face_neighbor_anchors(anchor, np.array([lev]), dim)
    for j in range(2 * dim):
        if inside[0, j]:
            assert not np.array_equal(out[0, j], anchor[0])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 60))
def test_gmres_matches_direct_solve(seed, n):
    from repro.la.krylov import gmres

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    x = rng.standard_normal(n)
    res = gmres(lambda v: A @ v, A @ x, tol=1e-12, restart=min(n, 30),
                maxiter=500)
    assert res.converged
    assert np.allclose(res.x, x, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_erode_then_dilate_never_grows_beyond_original(seed):
    """Opening (erode then equal dilate) is anti-extensive — a morphology
    axiom the mesh kernels must satisfy on uniform grids."""
    from repro.core import image

    rng = np.random.default_rng(seed)
    bw = (rng.random((32, 32)) < 0.4).astype(np.int8)
    opened = image.dilate(image.erode(bw, 1), 1)
    assert np.all(opened <= bw)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_dilate_then_erode_never_shrinks_below_original(seed):
    """Closing is extensive (dual axiom)."""
    from repro.core import image

    rng = np.random.default_rng(seed)
    bw = (rng.random((32, 32)) < 0.4).astype(np.int8)
    closed = image.erode(image.dilate(bw, 1), 1)
    assert np.all(closed >= bw)
