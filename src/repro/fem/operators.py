"""Batched elemental FEM operators, expressed as GEMM/GEMV contractions.

Following the paper's Sec. II-D strategy (extending Saurabh et al. [10]),
each elemental assembly is written as a dense matrix-matrix or matrix-vector
product over the whole batch of elements: everything but the coefficient
(``w``, ``N``, ``dN``) is pre-contracted once per ``dim`` into a reference
tensor (:func:`repro.fem.basis.reference_tensors`), so each call is one
``samples @ table`` BLAS product.  Because octree elements are axis-aligned
cubes, the geometric factors reduce to powers of the element size ``h``,
applied as a broadcast multiply:

* mass terms scale as ``h**dim``
* stiffness terms as ``h**(dim-2)``
* convection terms as ``h**(dim-1)``

All functions return arrays of shape ``(n_elems, nc, nc)`` (matrices) or
``(n_elems, nc)`` (vectors), with ``nc = 2**dim`` corners in Morton order.
Coefficient arguments are sampled at quadrature points, shape
``(n_elems, nq)`` (or scalars / per-element vectors, broadcast).
"""

from __future__ import annotations

import numpy as np

from .basis import reference_tensors, tabulate


def _contract(samples, table: np.ndarray, h, power: int) -> np.ndarray:
    """``h**power * (samples @ table)``, one row per element: the one GEMM
    of every operator.  ``samples`` holds ``len(table)`` quad-point values
    per element; a scalar or per-element vector is constant over them."""
    h = np.asarray(h, dtype=np.float64)
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim < 2:
        x = np.broadcast_to(x.reshape(-1, 1), (len(h), len(table)))
    out = x.reshape(len(h), len(table)) @ table
    out *= (h**power)[:, None]
    return out


def mass_matrix(h: np.ndarray, dim: int, coeff=1.0) -> np.ndarray:
    """``∫ c N_i N_j`` per element."""
    Ke = _contract(coeff, reference_tensors(dim).mass, h, dim)
    return Ke.reshape(len(Ke), 1 << dim, 1 << dim)


def stiffness_matrix(h: np.ndarray, dim: int, coeff=1.0) -> np.ndarray:
    """``∫ c ∇N_i · ∇N_j`` per element."""
    Ke = _contract(coeff, reference_tensors(dim).stiffness, h, dim - 2)
    return Ke.reshape(len(Ke), 1 << dim, 1 << dim)


def convection_matrix(
    h: np.ndarray, dim: int, vel_q: np.ndarray, *, transpose: bool = False
) -> np.ndarray:
    """``∫ N_i (v · ∇N_j)`` per element, or with ``transpose`` its transpose
    ``∫ N_j (v · ∇N_i)`` (the same GEMM on a transposed table, so the batch
    comes out contiguous); ``vel_q`` has shape (n_elems, nq, dim)."""
    ref = reference_tensors(dim)
    table = ref.convection_t if transpose else ref.convection
    Ke = _contract(vel_q, table, h, dim - 1)
    return Ke.reshape(len(Ke), 1 << dim, 1 << dim)


def load_vector(h: np.ndarray, dim: int, f_q) -> np.ndarray:
    """``∫ f N_i`` per element (GEMV formulation: ``b_e = B q_e``); ``k``
    sources at once as (n_elems, nq, k) -> (n_elems, nc, k)."""
    if np.ndim(f_q) == 3:
        be = np.matmul(reference_tensors(dim).load.T, f_q)
        be *= (np.asarray(h, dtype=np.float64) ** dim)[:, None, None]
        return be
    return _contract(f_q, reference_tensors(dim).load, h, dim)


def gradient_load_vector(h: np.ndarray, dim: int, flux_q: np.ndarray) -> np.ndarray:
    """``∫ F · ∇N_i`` per element; ``flux_q`` shape (n_elems, nq, dim).

    Used for weak divergence terms, e.g. the capillary stress
    ``(Cn/We) ∂_j(∂_iφ ∂_jφ)`` integrated by parts.
    """
    return _contract(flux_q, reference_tensors(dim).grad_load, h, dim - 1)


def value_at_quad(elem_vals: np.ndarray, dim: int) -> np.ndarray:
    """Field values at quadrature points from corner values
    (n_elems, nc[, k]) -> (n_elems, nq[, k])."""
    _, _, N, _ = tabulate(dim)
    if elem_vals.ndim == 3:
        return np.matmul(N, elem_vals)
    return elem_vals @ N.T


def gradient_at_quad(elem_vals: np.ndarray, h: np.ndarray, dim: int) -> np.ndarray:
    """Field gradients at quadrature points, (n_elems, nq, dim[, k])."""
    D = reference_tensors(dim).grad
    h = np.asarray(h, dtype=np.float64)
    nq = len(D) // dim
    if elem_vals.ndim == 3:
        g = np.matmul(D, elem_vals)
        g /= h[:, None, None]
        return g.reshape(len(h), nq, dim, elem_vals.shape[2])
    g = elem_vals @ D.T
    g /= h[:, None]
    return g.reshape(len(h), nq, dim)
