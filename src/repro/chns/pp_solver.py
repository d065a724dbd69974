"""PP-Solve: variable-density pressure Poisson equation
(paper Sec. II-A, step 3).

Projection-based pressure splitting with variable density: find the pressure
increment driving the tentative velocity toward solenoidality,

    div( (1/rho) grad p ) = (We/dt) div(v*)

discretized weakly (no-penetration boundaries make the flux term vanish):

    K_{1/rho} p = -(We/dt) ∫ N div(v*)  →  +(We/dt) ∫ grad N · v*

The operator has the constant nullspace; we solve with CG and a mean-zero
projection.  Below a measured mesh size the preconditioner is Jacobi, the
iterative-solver choice the paper lands on after finding AMG setup too
expensive at scale (Sec. III footnote); above it, one geometric-multigrid
V-cycle on ``K_{1/rho}`` — the solver the paper names as future work for
this block.  Jacobi-CG iterations grow like ``n_dofs ** (1/dim)``, V-cycle-CG
stays at 6-13, so the choice is a pure function of the mesh
(:data:`GMG_MIN_DOFS_PER_AXIS`): no option, and a restarted run takes the
same path as the uninterrupted one.

The variable-coefficient stiffness is re-assembled every step (the density
field moves), but only numerically: the symbolic scatter/projection pattern
comes from the mesh's :mod:`repro.fem.plan`, shared by all four block
solvers, ``1/rho`` at the quadrature points from the
:func:`repro.chns.forms.phase_at_quad` slot the NS solve of the same step
filled, and the right-hand side leaves through the planned load scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..fem.assembly import eliminate_dirichlet
from ..la.krylov import SolveResult, cg
from ..la.precond import JacobiPreconditioner, make_preconditioner
from ..mesh.mesh import Mesh
from . import forms
from .params import CHNSParams


#: PP preconditions CG with a GMG V-cycle when
#: ``mesh.n_dofs ** (1 / mesh.dim)`` reaches this, with Jacobi below.
#: Measured, ``EXPERIMENTS.md`` (ablation_gmg; Jacobi-CG ms over GMG
#: build + solve ms): 3.8x at 129 (2D level 7), 2.2x at 85 (the 5-7 graded
#: cavity mesh), 1.16x at 65 (2D level 6, before the one-off hierarchy
#: build), 0.7x at 60 and 33, 0.25-0.7x on every 3D mesh this repo reaches
#: (<= 18 per axis).
GMG_MIN_DOFS_PER_AXIS = 75.0


@dataclass
class PPResult:
    p: np.ndarray
    solve: SolveResult


class PPSolver:
    def __init__(self, mesh: Mesh, params: CHNSParams):
        self.mesh = mesh
        self.params = params

    def solve(
        self,
        phi: np.ndarray,
        vel_star: np.ndarray,
        dt: float,
        *,
        p0: np.ndarray | None = None,
        tol: float = 1e-9,
        exact_projection: bool = False,
        correction_masks=None,
    ) -> PPResult:
        """``exact_projection`` replaces the assembled Laplacian ``K_{1/rho}``
        with the *true* discrete Schur operator ``S = D M^{-1} G`` — the
        matrix-free composition of the consistent-gradient correction the
        VU solve applies (including its Dirichlet clamping, via
        ``correction_masks``) with the weak divergence.  With it the
        corrected velocity's weak divergence equals the projection target
        to solver tolerance, so no divergence residue survives to be
        re-amplified; the approximate ``K`` form leaves an O(h^2)-relative
        residue per step.  ``K`` still serves as the CG preconditioner."""
        mesh, prm = self.mesh, self.params
        with obs.span("pp.assemble"):
            inv_rho_q = forms.phase_at_quad(mesh, prm, phi).inv_rho_q
            K = forms.stiffness(mesh, inv_rho_q)

            vq = forms.field_at_quad(mesh, vel_star)  # (e, q, dim)
            b = (prm.We / dt) * forms.flux_divergence_load(mesh, vq)
            b -= b.mean()  # compatibility with the constant nullspace

        A_op = (
            self._schur_operator(inv_rho_q, correction_masks, K)
            if exact_projection
            else K
        )
        if mesh.n_dofs ** (1.0 / mesh.dim) >= GMG_MIN_DOFS_PER_AXIS:
            # One V-cycle on K itself, the exact pressure Schur operator of
            # the projection step, mean-zero projected on both sides.
            M = make_preconditioner("pcd", K, mesh=mesh, remove_mean=True)
        else:
            M = JacobiPreconditioner(K.diagonal() + 1e-12)
        res = cg(
            A_op,
            b,
            x0=p0,
            M=M,
            tol=tol,
            maxiter=6000,
        )
        obs.incr("pp.krylov_iterations", res.iterations)
        p = res.x - res.x.mean()  # fix the nullspace component
        return PPResult(p=p, solve=res)

    def _schur_operator(self, inv_rho_q, correction_masks, K):
        """Matrix-free ``S = D M^{-1} G + c h^2 K``: apply the
        consistent-gradient load (with 1/rho inside, exactly as the VU
        correction), invert the (Dirichlet-clamped) consistent mass per
        component, take the weak divergence.  LU-factored mass solves keep
        the composition exact to round-off — this runs on verify-sized
        meshes.

        The ``c h^2 K`` term is Brezzi-Pitkaranta pressure stabilization:
        equal-order Q1-Q1 makes the bare Schur complement near-singular on
        checkerboard modes (the inf-sup defect), and enforcing the weak
        divergence exactly lets those modes grow without bound through the
        pressure-accumulation feedback.  The stabilization gives them an
        ``O(h^2)`` eigenvalue — the same size as the smoothest physical
        mode of ``K`` — at the cost of an O(h^2)-relative, dt-independent
        divergence residue that cancels in same-mesh temporal ladders."""
        import scipy.sparse.linalg as spla

        mesh = self.mesh
        n, dim = mesh.n_dofs, mesh.dim
        M = forms.mass(mesh)
        stab = 0.1 * float(np.max(mesh.elem_h())) ** 2
        lus: dict = {}

        def lu_for(mask):
            key = None if mask is None else mask.tobytes()
            if key not in lus:
                A = M if mask is None else eliminate_dirichlet(M, mask)
                lus[key] = spla.splu(A.tocsc())
            return lus[key]

        def matvec(delta):
            gq = forms.grad_at_quad(mesh, delta)  # (e, q, dim)
            w = np.empty((n, dim))
            for i in range(dim):
                load = forms.source(mesh, inv_rho_q * gq[..., i])
                mask = (
                    None if correction_masks is None else correction_masks[i]
                )
                if mask is not None:
                    load = load.copy()
                    load[mask] = 0.0
                w[:, i] = lu_for(mask).solve(load)
            wq = forms.field_at_quad(mesh, w)
            out = forms.flux_divergence_load(mesh, wq) + stab * (K @ delta)
            return out - out.mean()

        return matvec
