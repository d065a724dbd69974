"""Mesh-level weak-form assembly helpers shared by the CHNS block solvers.

Thin layer over :mod:`repro.fem.operators` that evaluates DOF fields at
quadrature points and assembles the global sparse operators each solver
block needs.  Every operator here is a GEMM-expressed batched elemental
computation followed by a node-wise scatter (paper Sec. II-D).

All matrix assembly routes through :func:`repro.fem.plan.plan_assemble`:
the COO pattern and hanging-node projection are precomputed once per mesh,
and each call here only performs the cheap numeric update.  The slow
reference path lives in :func:`repro.fem.assembly.assemble_matrix`.

The ``*_ke`` / ``*_be`` functions stop before the scatter and return the
elemental batch, so a block solver can sum its operator (and its loads) at
the element level and scatter once; :func:`phase_at_quad` evaluates the
phase field and the mixture properties at the quadrature points once per
distinct ``phi`` for all of NS, PP and VU.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..fem.assembly import assemble_vector
from ..fem.basis import tabulate
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
from ..la.newton import IterateCache
from ..mesh.mesh import Mesh
from .params import CHNSParams, PhaseQuad


def field_at_quad(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """DOF field -> values at quadrature points (n_elems, nq[, k])."""
    return value_at_quad(mesh.elem_gather(u), mesh.dim)


def grad_at_quad(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """DOF field -> gradients at quadrature points (n_elems, nq, dim[, k])."""
    return gradient_at_quad(mesh.elem_gather(u), mesh.elem_h(), mesh.dim)


def phase_at_quad(mesh: Mesh, prm: CHNSParams, phi: np.ndarray) -> PhaseQuad:
    """``phi`` and its mixture properties at the quadrature points, evaluated
    once per distinct ``phi`` per mesh: a single
    :class:`repro.la.newton.IterateCache` slot (exact array equality, so a
    ``phi`` changed in place or rebound misses) in ``mesh.memo``, freed with
    the mesh.  NS, PP and VU of one step all read it.  The arrays are shared
    between callers and therefore read-only; a hit is bit for bit what a
    rebuild returns."""

    def build() -> PhaseQuad:
        phi_e = mesh.elem_gather(phi)
        phi_q = value_at_quad(phi_e, mesh.dim)
        rho_q = prm.rho_clamped(phi_q)
        out = PhaseQuad(
            phi_q, rho_q, 1.0 / rho_q, prm.eta_clamped(phi_q),
            gradient_at_quad(phi_e, mesh.elem_h(), mesh.dim),
        )
        for arr in out:
            arr.setflags(write=False)
        return out

    cache = mesh.memo.setdefault("phase", IterateCache())
    key = (prm.rho_plus, prm.rho_minus, prm.eta_plus, prm.eta_minus)
    return cache.get(np.asarray(phi), key, build)


def mass_ke(mesh: Mesh, coeff=1.0) -> np.ndarray:
    """Elemental (weighted) mass matrices (n_elems, nc, nc); ``coeff`` may be
    a quad-point array."""
    return mass_matrix(mesh.elem_h(), mesh.dim, coeff)


def stiffness_ke(mesh: Mesh, coeff=1.0) -> np.ndarray:
    return stiffness_matrix(mesh.elem_h(), mesh.dim, coeff)


def convection_ke(mesh: Mesh, vq: np.ndarray, *, transpose=False) -> np.ndarray:
    """Elemental ``∫ N_i (v · grad N_j)`` for an advecting field sampled at
    the quadrature points, shape (n_elems, nq, dim), or its transpose
    ``∫ N_j (v · grad N_i)``.  Linear in ``vq``: the sum of two convection
    operators is the operator of the summed fields."""
    return convection_matrix(mesh.elem_h(), mesh.dim, vq, transpose=transpose)


def mass(mesh: Mesh, coeff=1.0) -> sp.csr_matrix:
    """Global (weighted) mass matrix; ``coeff`` may be a quad-point array."""
    return plan_assemble(mesh, mass_ke(mesh, coeff))


def mesh_mass(mesh: Mesh) -> sp.csr_matrix:
    """The mesh's unweighted mass matrix, assembled once per mesh and kept in
    ``mesh.memo``: the CH block, the VU correction and the exact PP
    projection read this one matrix.  Shared, so its ``data`` is
    read-only."""
    M = mesh.memo.get("mass")
    if M is None:
        M = mesh.memo["mass"] = mass(mesh)
        M.data.setflags(write=False)
    return M


def stiffness(mesh: Mesh, coeff=1.0) -> sp.csr_matrix:
    return plan_assemble(mesh, stiffness_ke(mesh, coeff))


def convection(mesh: Mesh, vel_dofs: np.ndarray) -> sp.csr_matrix:
    """``∫ N_i (v · grad N_j)`` with velocity given as (n_dofs, dim)."""
    return plan_assemble(mesh, convection_ke(mesh, field_at_quad(mesh, vel_dofs)))


def source_be(mesh: Mesh, f_q) -> np.ndarray:
    """Elemental load vectors (n_elems, nc[, k]) of a quad-point (or
    constant) source; ``k`` sources at once as (n_elems, nq, k)."""
    return load_vector(mesh.elem_h(), mesh.dim, f_q)


def source(mesh: Mesh, f_q) -> np.ndarray:
    """Global load vector(s) of a quad-point (or constant) source."""
    return assemble_vector(mesh, source_be(mesh, f_q))


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
    return source(mesh, fv.reshape(e, q, *fv.shape[1:]))


def flux_divergence_be(mesh: Mesh, flux_q: np.ndarray) -> np.ndarray:
    """Elemental ``∫ F · grad N_i`` (n_elems, nc) of a quad-point flux."""
    return gradient_load_vector(mesh.elem_h(), mesh.dim, flux_q)


def flux_divergence_load(mesh: Mesh, flux_q: np.ndarray) -> np.ndarray:
    """Weak divergence of a quad-point flux: ``-∫ F · grad N_i`` appears in
    the equations as ``+∫ N_i div F`` integrated by parts; the caller picks
    the sign.  Returns ``∫ F · grad N_i``."""
    return assemble_vector(mesh, flux_divergence_be(mesh, flux_q))


def integrate(mesh: Mesh, dens_q: np.ndarray) -> float:
    """``∫ f`` over the mesh of a density given at the quadrature points,
    shape (n_elems, nq)."""
    _, w, _, _ = tabulate(mesh.dim)
    per_elem = np.einsum("q,eq->e", w, dens_q) * mesh.elem_h() ** mesh.dim
    return float(per_elem.sum())


def divergence_l2(mesh: Mesh, vel_dofs: np.ndarray) -> float:
    """``||div v||_{L2}`` computed at quadrature points."""
    div_q = np.einsum("eqdd->eq", grad_at_quad(mesh, vel_dofs))
    return float(np.sqrt(integrate(mesh, div_q**2)))
