"""PP-Solve: variable-density pressure Poisson equation
(paper Sec. II-A, step 3).

Projection-based pressure splitting with variable density: find the pressure
increment driving the tentative velocity toward solenoidality,

    div( (1/rho) grad p ) = (We/dt) div(v*)

discretized weakly (no-penetration boundaries make the flux term vanish):

    K_{1/rho} p = -(We/dt) ∫ N div(v*)  →  +(We/dt) ∫ grad N · v*

The operator has the constant nullspace; we solve with CG and a mean-zero
projection.  The preconditioner is a function of the mesh and of how long
the solver has lived, with no option, so a restarted run takes the same
path as the uninterrupted one:

* where :func:`repro.la.factors.may_factor` allows, single-precision LU
  factors of an earlier block's ``K_{1/rho}`` with one DOF pinned
  (:class:`~repro.la.factors.Factors`), refreshed by their amortised-cost
  rule;
* otherwise, and behind a held-factor solve that fails, Jacobi (the
  paper's choice after AMG setup proved too expensive at scale, Sec. III
  footnote) or, where :func:`repro.la.factors.pp_gmg` says so, one
  geometric-multigrid V-cycle on ``K_{1/rho}`` (the paper's future work
  for this block): Jacobi-CG iterations grow like ``n_dofs ** (1/dim)``,
  V-cycle-CG stays at 6-13.

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
from ..la.factors import Factors, may_factor, pp_gmg
from ..la.krylov import SolveResult, cg
from ..la.precond import JacobiPreconditioner, make_preconditioner
from ..mesh.mesh import Mesh
from . import forms
from .params import CHNSParams
from .vu_solver import mass_system


@dataclass
class PPResult:
    p: np.ndarray
    solve: SolveResult
    #: LU factorizations this solve made
    factorizations: int = 0
    #: 1 when a held-factor solve failed and was redone by the CG of before
    fallbacks: int = 0


class PPSolver:
    def __init__(self, mesh: Mesh, params: CHNSParams):
        self.mesh = mesh
        self.params = params
        self._factors = Factors(constant_nullspace=True)
        self._blocks = 0  # solves since construction or drop_factors()

    def drop_factors(self) -> None:
        """Forget the held factors and restart the first-block rule: the
        next solve runs as on a fresh solver."""
        self._factors.drop()
        self._blocks = 0

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
        last_block: bool = False,
    ) -> PPResult:
        """``exact_projection`` replaces the assembled Laplacian ``K_{1/rho}``
        with the *true* discrete Schur operator ``S = D M^{-1} G`` — the
        matrix-free composition of the consistent-gradient correction the
        VU solve applies (including its Dirichlet clamping, via
        ``correction_masks``) with the weak divergence.  With it the
        corrected velocity's weak divergence equals the projection target
        to solver tolerance, so no divergence residue survives to be
        re-amplified; the approximate ``K`` form leaves an O(h^2)-relative
        residue per step.  ``K`` still serves as the CG preconditioner.

        ``last_block``: the mesh is replaced after this block, so held
        factors are used but none are made."""
        mesh, prm = self.mesh, self.params
        with obs.span("pp.assemble"):
            inv_rho_q = forms.phase_at_quad(mesh, prm, phi).inv_rho_q
            K = forms.stiffness(mesh, inv_rho_q)

            vq = forms.field_at_quad(mesh, vel_star)  # (e, q, dim)
            b = (prm.We / dt) * forms.flux_divergence_load(mesh, vq)
            b -= b.mean()  # compatibility with the constant nullspace

        factoring = may_factor(
            "pp", mesh, blocks_run=self._blocks, last_block=last_block
        ) and not exact_projection
        self._blocks += 1
        if exact_projection:  # held factors are K's, not the Schur operator's
            self._factors.drop()

        def krylov_cg():
            A_op = (
                self._schur_operator(inv_rho_q, correction_masks, K)
                if exact_projection
                else K
            )
            if pp_gmg(mesh):
                M = make_preconditioner(mesh, K)
            else:
                M = JacobiPreconditioner(K.diagonal() + 1e-12)
            return cg(A_op, b, x0=p0, M=M, tol=tol, maxiter=6000)

        res, factorizations, fallbacks = self._factors.solve(
            cg, K, b, tol=tol, x0=p0, fallback=krylov_cg, may_factor=factoring
        )
        p = res.x - res.x.mean()  # fix the nullspace component
        return PPResult(p=p, solve=res, factorizations=factorizations,
                        fallbacks=fallbacks)

    def _schur_operator(self, inv_rho_q, correction_masks, K):
        """Matrix-free ``S = D M^{-1} G + c h^2 K``: apply the
        consistent-gradient load (with 1/rho inside, exactly as the VU
        correction), invert the (Dirichlet-clamped) consistent mass per
        component, take the weak divergence.  LU-factored mass solves keep
        the composition exact to round-off — this runs on verify-sized
        meshes.  The factors are the VU block's, one per (mesh, mask)
        (:func:`repro.chns.vu_solver.mass_system`).

        The ``c h^2 K`` term is Brezzi-Pitkaranta pressure stabilization:
        equal-order Q1-Q1 makes the bare Schur complement near-singular on
        checkerboard modes (the inf-sup defect), and enforcing the weak
        divergence exactly lets those modes grow without bound through the
        pressure-accumulation feedback.  The stabilization gives them an
        ``O(h^2)`` eigenvalue — the same size as the smoothest physical
        mode of ``K`` — at the cost of an O(h^2)-relative, dt-independent
        divergence residue that cancels in same-mesh temporal ladders."""
        mesh = self.mesh
        n, dim = mesh.n_dofs, mesh.dim
        stab = 0.1 * float(np.max(mesh.elem_h())) ** 2

        masks = [None] * dim if correction_masks is None else correction_masks
        systems = [mass_system(mesh, mask) for mask in masks]
        for system in systems:
            system.factor()

        def matvec(delta):
            gq = forms.grad_at_quad(mesh, delta)  # (e, q, dim)
            w = np.empty((n, dim))
            for i in range(dim):
                load = forms.source(mesh, inv_rho_q * gq[..., i])
                if masks[i] is not None:
                    load = load.copy()
                    load[masks[i]] = 0.0
                w[:, i] = systems[i].lu.solve(load)
            wq = forms.field_at_quad(mesh, w)
            out = forms.flux_divergence_load(mesh, wq) + stab * (K @ delta)
            return out - out.mean()

        return matvec
