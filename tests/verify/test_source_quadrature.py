"""Property test pinning the quadrature order the MMS harness depends on.

``chns.forms.source`` assembles ``∫ f N_i`` with 2-point tensor Gauss —
exact for integrands of per-direction degree ≤ 3.  The shape functions are
Q1 (degree 1 per direction), so the load vector is *exact* for tensor
polynomials ``f`` of per-direction degree ≤ 2, and the load-vector sum
(``Σ N_i = 1``) integrates degree ≤ 3 exactly.  Both properties are checked
against closed forms; if someone drops the quadrature order, these fail."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chns import forms
from repro.fem.basis import tabulate, quad_point_coords
from repro.fem.plan import get_plan
from repro.mesh.mesh import Mesh
from repro.octree import morton
from repro.octree.build import uniform_tree

MESH = Mesh.from_tree(uniform_tree(2, 2))

coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def _poly(coeffs, degx, degy):
    """Tensor polynomial f(x, y) = sum c_ij x^i y^j as a quad-point array."""
    xq = forms.quad_xy(MESH)
    x, y = xq[..., 0], xq[..., 1]
    out = np.zeros_like(x)
    k = 0
    for i in range(degx + 1):
        for j in range(degy + 1):
            out += coeffs[k] * x**i * y**j
            k += 1
    return out


def _exact_integral(coeffs, degx, degy):
    """∫_[0,1]^2 f dx dy in closed form: ∫ x^i y^j = 1/((i+1)(j+1))."""
    total, k = 0.0, 0
    for i in range(degx + 1):
        for j in range(degy + 1):
            total += coeffs[k] / ((i + 1) * (j + 1))
            k += 1
    return total


@settings(max_examples=25, deadline=None)
@given(st.lists(coeff, min_size=16, max_size=16))
def test_load_sum_integrates_cubics_exactly(coeffs):
    f_q = _poly(coeffs, 3, 3)
    load = forms.source(MESH, f_q)
    assert np.isclose(
        load.sum(), _exact_integral(coeffs, 3, 3), rtol=0, atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(coeff, min_size=9, max_size=9))
def test_load_vector_exact_for_quadratics(coeffs):
    """Per-DOF loads for degree-≤2 f match a much higher-order quadrature."""
    load = forms.source(MESH, _poly(coeffs, 2, 2))

    # Reference assembly with 5-point Gauss (exact to degree 9).
    order = 5
    pts, w, N, _ = tabulate(MESH.dim, order)
    scale = float(1 << morton.MAX_DEPTH)
    xq = quad_point_coords(
        MESH.tree.anchors / scale, MESH.elem_h(), MESH.dim, order
    )
    x, y = xq[..., 0], xq[..., 1]
    f = np.zeros_like(x)
    k = 0
    for i in range(3):
        for j in range(3):
            f += coeffs[k] * x**i * y**j
            k += 1
    be = np.einsum("q,eq,qi->ei", w, f, N) * (
        MESH.elem_h() ** MESH.dim
    )[:, None]
    ref = get_plan(MESH).scatter_loads(be)
    assert np.allclose(load, ref, rtol=0, atol=1e-13)


def test_quartic_not_required_to_be_exact():
    """Degree-4 integrands genuinely exceed the 2-point rule — the property
    above is tight, not vacuous."""
    xq = forms.quad_xy(MESH)
    load = forms.source(MESH, xq[..., 0] ** 4)
    assert abs(load.sum() - 1.0 / 5.0) > 1e-9
