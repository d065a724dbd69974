"""Linear (multilinear) basis functions and Gauss quadrature on the
reference element ``[0, 1]**dim``.

Corner ordering matches Morton child order: corner ``c`` has coordinate bit
``(c >> axis) & 1`` along each axis (:func:`repro.octree.morton.corner_bits`,
shared with :func:`repro.octree.morton.children` and the mesh node tables) —
elemental arrays line up with no permutation anywhere.
:func:`shape_functions` is the one multilinear evaluation: quadrature
tables, hanging-node weights, inter-grid transfer, point evaluation and the
GMG prolongation all call it.

Octree elements are axis-aligned cubes of side ``h``, so the reference-to-
physical map is a pure scaling: ``det J = h**dim`` and reference gradients
pick up a factor ``1/h``.  The paper restricts its runs to linear basis
functions (Sec. II-A, third remark); so do we.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..octree.morton import corner_bits


@lru_cache(maxsize=None)
def gauss_points(dim: int, order: int = 2):
    """Tensor-product Gauss-Legendre points/weights on [0,1]**dim.

    Returns ``(points (nq, dim), weights (nq,))``; weights sum to 1.
    """
    x1, w1 = np.polynomial.legendre.leggauss(order)
    x1 = 0.5 * (x1 + 1.0)
    w1 = 0.5 * w1
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
    w = np.ones(len(pts))
    for g in wgrids:
        w *= g.ravel()
    return pts, w


def shape_functions(xi: np.ndarray, dim: int) -> np.ndarray:
    """Multilinear shape functions N (npts, 2**dim) at reference points."""
    xi = np.atleast_2d(xi)
    bits = corner_bits(dim)
    nc = 1 << dim
    out = np.ones((len(xi), nc))
    for c in range(nc):
        for axis in range(dim):
            out[:, c] *= xi[:, axis] if bits[c, axis] else (1.0 - xi[:, axis])
    return out


def shape_gradients(xi: np.ndarray, dim: int) -> np.ndarray:
    """Reference gradients dN (npts, 2**dim, dim)."""
    xi = np.atleast_2d(xi)
    bits = corner_bits(dim)
    nc = 1 << dim
    out = np.ones((len(xi), nc, dim))
    for c in range(nc):
        for d in range(dim):
            for axis in range(dim):
                if axis == d:
                    out[:, c, d] *= 1.0 if bits[c, axis] else -1.0
                else:
                    out[:, c, d] *= xi[:, axis] if bits[c, axis] else (1.0 - xi[:, axis])
    return out


def _read_only(*arrays: np.ndarray) -> tuple:
    """Cached tables are handed out by reference: an in-place write by one
    caller would corrupt every later assembly in the process."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def tabulate(dim: int, order: int = 2):
    """Quadrature tables: ``(points, weights, N, dN)`` with shapes
    (nq, dim), (nq,), (nq, nc), (nq, nc, dim).  Read-only."""
    pts, w = gauss_points(dim, order)
    return _read_only(pts, w, shape_functions(pts, dim), shape_gradients(pts, dim))


class ReferenceTensors(NamedTuple):
    """Per-``dim`` factor of each elemental operator: rows are quad points
    ``q`` (or ``(q, d)`` pairs), columns ``(i, j)`` pairs (or corners)."""

    mass: np.ndarray  # (nq, nc*nc)      w_q N_qi N_qj
    stiffness: np.ndarray  # (nq, nc*nc)      w_q sum_d dN_qid dN_qjd
    convection: np.ndarray  # (nq*dim, nc*nc)  w_q N_qi dN_qjd
    convection_t: np.ndarray  # (nq*dim, nc*nc)  w_q dN_qid N_qj
    load: np.ndarray  # (nq, nc)         w_q N_qi
    grad_load: np.ndarray  # (nq*dim, nc)     w_q dN_qid
    grad: np.ndarray  # (nq*dim, nc)     dN_qid


@lru_cache(maxsize=None)
def reference_tensors(dim: int) -> ReferenceTensors:
    """Everything but the coefficient, contracted once so that each function
    of :mod:`repro.fem.operators` is one matrix product.  Read-only."""
    _, w, N, dN = tabulate(dim)
    nq, nc = N.shape
    grad = dN.transpose(0, 2, 1)  # (nq, dim, nc)
    load = w[:, None] * N
    grad_load = w[:, None, None] * grad
    convection = load[:, None, :, None] * grad[:, :, None, :]  # (q, d, i, j)
    return ReferenceTensors(*_read_only(
        (load[:, :, None] * N[:, None, :]).reshape(nq, nc * nc),
        (grad_load.transpose(0, 2, 1) @ grad).reshape(nq, nc * nc),
        convection.reshape(nq * dim, nc * nc),
        convection.transpose(0, 1, 3, 2).reshape(nq * dim, nc * nc),
        load,
        grad_load.reshape(nq * dim, nc),
        grad.reshape(nq * dim, nc),
    ))


def quad_point_coords(anchors, sizes, dim: int, order: int = 2) -> np.ndarray:
    """Physical (unit-cube) coordinates of quadrature points per element,
    shape (n_elems, nq, dim).  ``anchors``/``sizes`` in unit-cube units."""
    pts, _, _, _ = tabulate(dim, order)
    return anchors[:, None, :] + pts[None, :, :] * np.asarray(sizes)[:, None, None]
