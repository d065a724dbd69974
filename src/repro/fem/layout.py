"""zip/unzip data layout for multi-DOF elemental assembly (paper Sec. II-D).

PETSc's block storage (MATMPIBAIJ) interleaves DOFs in the global layout:
``[n0·d0, n0·d1, n1·d0, n1·d1, ...]``.  Writing an operator block
``L(dof_i, dof_j)`` into that layout strides through memory (Fig. 2: a 2-DOF
2D vector writes 0,2,4,6 then 1,3,5,7; Fig. 3 shows the matrix analogue).

The paper's fix:

1. *zip* the elemental data so equal DOFs are contiguous,
2. assemble per DOF-block with contiguous writes — each block is a pure
   GEMM/GEMV on vendor BLAS,
3. *unzip* once back to the interleaved global layout.

For matrices no explicit zip is ever performed: elemental assembly starts
from zeros, so only the final unzip exists (paper's remark).

Shapes: interleaved elemental vectors are (n_elems, nn*ndof) ordered
node-major; zipped vectors are (n_elems, ndof, nn).  Interleaved elemental
matrices are (n_elems, nn*ndof, nn*ndof); zipped matrices are
(n_elems, ndof, ndof, nn, nn).
"""

from __future__ import annotations

import numpy as np

from .basis import tabulate


# --------------------------------------------------------------------- zips


def zip_vector(ve: np.ndarray, ndof: int) -> np.ndarray:
    """Interleaved (e, nn*ndof) -> zipped (e, ndof, nn); a single pass."""
    n_elems, width = ve.shape
    nn = width // ndof
    return np.ascontiguousarray(ve.reshape(n_elems, nn, ndof).transpose(0, 2, 1))


def unzip_vector(vz: np.ndarray) -> np.ndarray:
    """Zipped (e, ndof, nn) -> interleaved (e, nn*ndof)."""
    n_elems, ndof, nn = vz.shape
    return np.ascontiguousarray(vz.transpose(0, 2, 1).reshape(n_elems, nn * ndof))


def zip_matrix(Ae: np.ndarray, ndof: int) -> np.ndarray:
    """Interleaved (e, nn*ndof, nn*ndof) -> zipped (e, ndof, ndof, nn, nn)."""
    n_elems, width, _ = Ae.shape
    nn = width // ndof
    return np.ascontiguousarray(
        Ae.reshape(n_elems, nn, ndof, nn, ndof).transpose(0, 2, 4, 1, 3)
    )


def unzip_matrix(Az: np.ndarray) -> np.ndarray:
    """Zipped (e, ndof, ndof, nn, nn) -> interleaved (e, nn*ndof, nn*ndof)."""
    n_elems, ndof, _, nn, _ = Az.shape
    return np.ascontiguousarray(
        Az.transpose(0, 3, 1, 4, 2).reshape(n_elems, nn * ndof, nn * ndof)
    )


def strided_indices(nn: int, ndof: int, dof: int) -> np.ndarray:
    """Global positions written by DOF block ``dof`` in the interleaved
    layout — the paper's example: dof 0 of a 2-DOF 2D element writes
    0, 2, 4, 6 and dof 1 writes 1, 3, 5, 7."""
    return np.arange(nn) * ndof + dof


# ------------------------------------------------- assembly kernel variants


def assemble_vector_strided(coeff_q: np.ndarray, h: np.ndarray, dim: int) -> np.ndarray:
    """Vector assembly writing straight into the interleaved layout.

    ``coeff_q``: (n_elems, ndof, nq) source terms per DOF field.  Each DOF
    loop writes with stride ``ndof`` — the baseline the paper improves on.
    """
    _, w, N, _ = tabulate(dim)
    n_elems, ndof, nq = coeff_q.shape
    nn = N.shape[1]
    scale = (np.asarray(h, dtype=np.float64) ** dim)[:, None]
    out = np.zeros((n_elems, nn * ndof))
    for dof in range(ndof):
        idx = strided_indices(nn, ndof, dof)
        out[:, idx] = np.einsum("q,eq,qi->ei", w, coeff_q[:, dof, :], N) * scale
    return out


def assemble_vector_zipped(coeff_q: np.ndarray, h: np.ndarray, dim: int) -> np.ndarray:
    """Vector assembly in the zipped layout + one unzip pass (paper's way).

    The per-block product is a single batched GEMV: ``b = (w ⊙ c) @ N``.
    """
    _, w, N, _ = tabulate(dim)
    scale = (np.asarray(h, dtype=np.float64) ** dim)[:, None, None]
    # One GEMM over all elements and DOF blocks at once: contiguous writes.
    bz = (coeff_q * w[None, None, :]) @ N  # (e, ndof, nn)
    bz = bz * scale
    return unzip_vector(bz)


def assemble_matrix_strided(
    coeff_q: np.ndarray, h: np.ndarray, dim: int
) -> np.ndarray:
    """Matrix assembly writing each (dof_i, dof_j) block into the interleaved
    elemental matrix with doubly-strided access (paper Fig. 3 baseline)."""
    _, w, N, _ = tabulate(dim)
    n_elems, ndof, _, nq = coeff_q.shape
    nn = N.shape[1]
    scale = (np.asarray(h, dtype=np.float64) ** dim)[:, None, None]
    out = np.zeros((n_elems, nn * ndof, nn * ndof))
    for di in range(ndof):
        ri = strided_indices(nn, ndof, di)
        for dj in range(ndof):
            cj = strided_indices(nn, ndof, dj)
            blk = np.einsum("q,eq,qi,qj->eij", w, coeff_q[:, di, dj, :], N, N) * scale
            out[:, ri[:, None], cj[None, :]] = blk
    return out


def assemble_matrix_zipped(
    coeff_q: np.ndarray, h: np.ndarray, dim: int
) -> np.ndarray:
    """Matrix assembly as pure GEMM per DOF block in zipped layout, with a
    single final unzip (no explicit zip — paper's remark)."""
    _, w, N, _ = tabulate(dim)
    scale = (np.asarray(h, dtype=np.float64) ** dim)[:, None, None, None, None]
    # (e, di, dj, q) x (q, i) x (q, j): batched GEMM via matmul on the last
    # two axes: first scale N rows by the coefficient, then N^T @ (...).
    weighted = coeff_q * w[None, None, None, :]  # (e, di, dj, q)
    left = weighted[..., :, None] * N[None, None, None, :, :]  # (e,di,dj,q,i)
    Az = np.swapaxes(left, -1, -2) @ N  # (e,di,dj,i,j)
    Az = Az * scale
    return unzip_matrix(Az)
