"""Mesh-level weak-form assembly helpers shared by the CHNS block solvers.

Thin layer over :mod:`repro.fem.operators` that evaluates DOF fields at
quadrature points and assembles the global sparse operators each solver
block needs.  Every operator here is a GEMM-expressed batched elemental
computation followed by a node-wise scatter (paper Sec. II-D).

All matrix assembly routes through :func:`repro.fem.plan.plan_assemble`:
the COO pattern and hanging-node projection are precomputed once per mesh
generation, and each call here only performs the cheap numeric update.  The
slow reference path lives in :func:`repro.fem.assembly.assemble_matrix`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ..fem.assembly import assemble_vector
from ..fem.plan import plan_assemble
from ..fem.operators import (
    convection_matrix,
    gradient_at_quad,
    gradient_load_vector,
    load_vector,
    mass_matrix,
    stiffness_matrix,
    value_at_quad,
)
from ..mesh.mesh import Mesh


def field_at_quad(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """DOF field -> values at quadrature points (n_elems, nq[, k])."""
    return value_at_quad(mesh.elem_gather(u), mesh.dim)


def grad_at_quad(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """DOF field -> gradients at quadrature points (n_elems, nq, dim[, k])."""
    return gradient_at_quad(mesh.elem_gather(u), mesh.elem_h(), mesh.dim)


def mass(mesh: Mesh, coeff=1.0) -> sp.csr_matrix:
    """Global (weighted) mass matrix; ``coeff`` may be a quad-point array."""
    return plan_assemble(mesh, mass_matrix(mesh.elem_h(), mesh.dim, coeff))


def stiffness(mesh: Mesh, coeff=1.0) -> sp.csr_matrix:
    return plan_assemble(
        mesh, stiffness_matrix(mesh.elem_h(), mesh.dim, coeff)
    )


def convection(mesh: Mesh, vel_dofs: np.ndarray, rho_q=None) -> sp.csr_matrix:
    """``∫ c N_i (v · grad N_j)`` with velocity given as (n_dofs, dim) and
    the optional density weight ``c`` at quadrature points."""
    vq = field_at_quad(mesh, vel_dofs)  # (e, nq, dim)
    if rho_q is not None:
        vq = vq * np.asarray(rho_q)[..., None]
    return convection_from_quad(mesh, vq)


def convection_from_quad(mesh: Mesh, vq: np.ndarray) -> sp.csr_matrix:
    """Convection by an advecting field already sampled at quadrature points
    (e.g. the NS diffusive mass flux), shape (n_elems, nq, dim)."""
    return plan_assemble(
        mesh, convection_matrix(mesh.elem_h(), mesh.dim, vq)
    )


def source(mesh: Mesh, f_q) -> np.ndarray:
    """Global load vector of a quad-point (or constant) source."""
    return assemble_vector(mesh, load_vector(mesh.elem_h(), mesh.dim, f_q))


def quad_xy(mesh: Mesh) -> np.ndarray:
    """Physical (unit-cube) coordinates of every quadrature point, shape
    (n_elems, nq, dim) — where manufactured source terms are sampled."""
    from ..fem.basis import quad_point_coords
    from ..octree import morton

    scale = float(1 << morton.MAX_DEPTH)
    return quad_point_coords(
        mesh.tree.anchors / scale, mesh.elem_h(), mesh.dim
    )


def source_at(mesh: Mesh, f: Callable, t: float = 0.0) -> np.ndarray:
    """Load vector(s) of a space-time source ``f(x, t)`` sampled at the
    quadrature points (the MMS forcing hook: :mod:`repro.verify` derives
    ``f`` symbolically and the block solvers add the result to their RHS).

    ``f`` maps ``((npts, dim), t)`` to ``(npts,)`` for a scalar source
    (returns ``(n_dofs,)``) or to ``(npts, k)`` for a vector one (returns
    ``(n_dofs, k)``).
    """
    xq = quad_xy(mesh)
    e, q, dim = xq.shape
    fv = np.asarray(f(xq.reshape(-1, dim), t), dtype=float)
    if fv.ndim == 1:
        return source(mesh, fv.reshape(e, q))
    return np.stack(
        [source(mesh, fv[:, j].reshape(e, q)) for j in range(fv.shape[1])],
        axis=1,
    )


def flux_divergence_load(mesh: Mesh, flux_q: np.ndarray) -> np.ndarray:
    """Weak divergence of a quad-point flux: ``-∫ F · grad N_i`` appears in
    the equations as ``+∫ N_i div F`` integrated by parts; the caller picks
    the sign.  Returns ``∫ F · grad N_i``."""
    return assemble_vector(
        mesh, gradient_load_vector(mesh.elem_h(), mesh.dim, flux_q)
    )


def divergence_of(mesh: Mesh, vel_dofs: np.ndarray) -> np.ndarray:
    """L2-projected divergence of a velocity DOF field (diagnostic)."""
    vq = grad_at_quad(mesh, vel_dofs)  # (e, q, dim, dim): d v_k / d x_d
    div_q = np.einsum("eqdd->eq", vq)
    b = source(mesh, div_q)
    lumped = np.asarray(mass(mesh).sum(axis=1)).ravel()
    return b / lumped


def divergence_l2(mesh: Mesh, vel_dofs: np.ndarray) -> float:
    """``||div v||_{L2}`` computed at quadrature points."""
    from ..fem.basis import tabulate

    vq = grad_at_quad(mesh, vel_dofs)
    div_q = np.einsum("eqdd->eq", vq)
    _, w, _, _ = tabulate(mesh.dim)
    h = mesh.elem_h()
    val = np.einsum("q,eq->e", w, div_q**2) * h**mesh.dim
    return float(np.sqrt(val.sum()))
