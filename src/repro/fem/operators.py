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
``(n_elems, nq)`` (or scalars / per-element vectors, broadcast).  The
vector kernels (loads and fields at quadrature points) also take ``k``
columns at once in a trailing axis; they are still one 2D GEMM, on the
Kronecker table ``kron(table, I_k)``.
"""

from __future__ import annotations

from functools import lru_cache

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
    k = _columns(f_q, 3)
    be = _contract(f_q, _table(dim, "load", k), h, dim)
    return be if k is None else be.reshape(len(be), 1 << dim, k)


def gradient_load_vector(h: np.ndarray, dim: int, flux_q: np.ndarray) -> np.ndarray:
    """``∫ F · ∇N_i`` per element; ``flux_q`` shape (n_elems, nq, dim), or
    ``k`` fluxes at once as (n_elems, nq, dim, k) -> (n_elems, nc, k).

    Used for weak divergence terms, e.g. the capillary stress
    ``(Cn/We) ∂_j(∂_iφ ∂_jφ)`` integrated by parts.
    """
    k = _columns(flux_q, 4)
    be = _contract(flux_q, _table(dim, "grad_load", k), h, dim - 1)
    return be if k is None else be.reshape(len(be), 1 << dim, k)


def value_at_quad(elem_vals: np.ndarray, dim: int) -> np.ndarray:
    """Field values at quadrature points from corner values
    (n_elems, nc[, k]) -> (n_elems, nq[, k])."""
    k = _columns(elem_vals, 3)
    table = _table(dim, "value", k)
    vq = elem_vals.reshape(len(elem_vals), len(table)) @ table
    return vq if k is None else vq.reshape(len(vq), 1 << dim, k)


def gradient_at_quad(elem_vals: np.ndarray, h: np.ndarray, dim: int) -> np.ndarray:
    """Field gradients at quadrature points, (n_elems, nq, dim[, k])."""
    k = _columns(elem_vals, 3)
    table = _table(dim, "grad", k)
    g = elem_vals.reshape(len(elem_vals), len(table)) @ table
    g /= np.asarray(h, dtype=np.float64)[:, None]
    shape = (len(g), 1 << dim, dim) + (() if k is None else (k,))
    return g.reshape(shape)


def _columns(x, ndim: int) -> int | None:
    """``k`` of an input that carries a trailing axis of ``k`` columns (an
    ``ndim``-dimensional batch), else None."""
    return np.shape(x)[-1] if np.ndim(x) == ndim else None


@lru_cache(maxsize=None)
def _table(dim: int, name: str, k: int | None) -> np.ndarray:
    """The ``name`` table of ``dim`` acting on ``k`` columns at once.  A
    batch with a trailing column axis is row-major ``(..., k)``, so
    ``x.reshape(e, n * k) @ kron(table, I_k)`` is the operator applied to
    every column: one 2D GEMM, as for one column (``k`` None: the table
    itself).  Read-only."""
    if name == "value":
        table = tabulate(dim)[2].T
    elif name == "grad":
        table = reference_tensors(dim).grad.T
    else:
        table = getattr(reference_tensors(dim), name)
    if k is None:
        return table
    out = np.kron(table, np.eye(k))
    out.setflags(write=False)
    return out
