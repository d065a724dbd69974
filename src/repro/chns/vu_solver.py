"""VU-Solve: velocity correction / projection (paper Sec. II-A, step 4).

The tentative velocity is corrected with the new pressure,

    v^{n+1} = v* - (dt / (We rho)) grad p,

realized as one mass solve *per direction*: the paper's memory remark —
splitting the update per component shrinks the assembled matrix from
``N x DIM x k`` to ``N x k`` nonzeros, and the mass matrix is assembled once
and reused for every direction (and every later step) until the mesh
changes, with no further Mat_Assembly calls.  (The one-time assembly itself
rides the per-generation :mod:`repro.fem.plan` symbolic cache, so even the
post-remesh rebuild shares pattern work with the other block solvers.)
The Dirichlet-eliminated matrix and its Jacobi preconditioner are constant
too: built once per distinct mask for the life of the solver (one
``Mesh.generation``); a step only lifts its right-hand side.  The right-hand
sides of all directions are assembled at once (one ``M @ v*`` on the
``(n_dofs, dim)`` array, one ``dim``-column load scatter), with ``1/rho`` at
the quadrature points read from :func:`repro.chns.forms.phase_at_quad`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..fem.assembly import eliminate_dirichlet, lift_dirichlet
from ..la.krylov import SolveResult, cg
from ..la.precond import JacobiPreconditioner
from ..mesh.mesh import Mesh
from . import forms
from .params import CHNSParams


@dataclass
class VUResult:
    vel: np.ndarray  # (n_dofs, dim) solenoidal velocity
    solves: list


class VUSolver:
    def __init__(self, mesh: Mesh, params: CHNSParams):
        self.mesh = mesh
        self.params = params
        # Assembled once; reused across directions and steps (paper remark).
        self.M = forms.mass(mesh)
        #: (matrix, preconditioner) per Dirichlet mask (None: unconstrained)
        self._systems: dict = {}

    def _system(self, mask):
        """The mass matrix with ``mask`` eliminated and its Jacobi
        preconditioner; both are constant, so built once per mask."""
        key = None if mask is None else mask.tobytes()
        if key not in self._systems:
            M_bc = self.M if mask is None else eliminate_dirichlet(self.M, mask)
            self._systems[key] = (M_bc, JacobiPreconditioner(M_bc))
        return self._systems[key]

    def solve(
        self,
        phi: np.ndarray,
        vel_star: np.ndarray,
        p: np.ndarray,
        dt: float,
        *,
        dirichlet_masks=None,
        dirichlet_values=None,
        tol: float = 1e-10,
    ) -> VUResult:
        mesh, prm = self.mesh, self.params
        dim = mesh.dim
        with obs.span("vu.assemble"):
            inv_rho_q = forms.phase_at_quad(mesh, prm, phi).inv_rho_q
            grad_p_q = forms.grad_at_quad(mesh, p)  # (e, q, dim)
            rhs_all = self.M @ vel_star - (dt / prm.We) * forms.source(
                mesh, inv_rho_q[..., None] * grad_p_q
            )

        vel = np.zeros_like(vel_star)
        solves = []
        for i in range(dim):
            rhs = rhs_all[:, i].copy()
            mask = None
            if dirichlet_masks is not None:
                mask = np.asarray(dirichlet_masks[i], dtype=bool)
                vals = None if dirichlet_values is None else dirichlet_values[i]
                rhs = lift_dirichlet(self.M, rhs, mask, vals)
            A_i, pc = self._system(mask)
            res = cg(
                A_i, rhs, x0=vel_star[:, i].copy(), M=pc, tol=tol, maxiter=3000
            )
            solves.append(res)
            vel[:, i] = res.x
        return VUResult(vel=vel, solves=solves)
