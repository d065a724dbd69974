"""NS-Solve: semi-implicit Crank-Nicolson momentum predictor
(paper Sec. II-A, step 2).

Mixture density/viscosity come from the freshly solved phi.  Convection is
linearized about the extrapolated velocity ``v* = 2 v^n - v^{n-1}``
("the explicit parts ... avoid an expensive setup of Newton iteration for
NS").  The same operator serves every velocity component, so it is
assembled once per step and reused DIM times — the paper's VU-solve memory
remark applied one block earlier.

Momentum weak form per component i (all terms non-dimensional, Eq. 1):

  A_imp v_i^{n+1} = (2 M_rho/dt - A_imp) v_i^n - (1/We) G_i p^n
                    + (Cn/We) S_i(phi) + (rho g_i / Fr) M 1
  A_imp = M_rho/dt + C(rho v* + J/Pe)/2 + K_eta/(2 Re)

with S_i the capillary term ``∫ (d_i phi)(grad phi) · grad N`` (integration
by parts of the paper's div(grad phi ⊗ grad phi)) and ``J = J_coeff *
m(phi) grad mu`` the diffusive mass flux; convection is linear in its
advecting field, so ``rho v*`` and ``J/Pe`` share one operator.

Everything is summed at the element level: ``A_imp`` is one ``Ke`` sum and
one scatter; the explicit operator is never assembled —
``Ke_exp = 2 Ke_M/dt - Ke_imp`` multiplies the gathered ``v^n`` as a batched
GEMV inside the same elemental load as the pressure-gradient, capillary and
gravity terms, and all ``dim`` right-hand sides leave through one scatter.
Components with the same Dirichlet mask share one eliminated matrix and one
Jacobi preconditioner (the paper's choice for its blocks, Sec. III footnote).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..fem.assembly import assemble_vector, lift_dirichlet
from ..fem.plan import get_plan
from ..la.krylov import bicgstab
from ..la.precond import JacobiPreconditioner
from ..mesh.mesh import Mesh
from . import forms
from .free_energy import mobility
from .params import CHNSParams


@dataclass
class NSResult:
    vel_star: np.ndarray  # (n_dofs, dim) tentative velocity
    solves: list


class NSSolver:
    def __init__(self, mesh: Mesh, params: CHNSParams):
        self.mesh = mesh
        self.params = params

    def solve(
        self,
        phi: np.ndarray,
        mu: np.ndarray,
        vel_n: np.ndarray,
        vel_nm1: np.ndarray,
        p_n: np.ndarray,
        dt: float,
        *,
        dirichlet_masks=None,
        dirichlet_values=None,
        tol: float = 1e-9,
        forcing: np.ndarray | None = None,
    ) -> NSResult:
        """``forcing`` is a pre-assembled load vector (n_dofs, dim) added to
        each component RHS — the MMS manufactured-solution hook."""
        mesh, prm = self.mesh, self.params
        dim = mesh.dim
        plan = get_plan(mesh)
        masks = [None] * dim
        if dirichlet_masks is not None:
            masks = [np.asarray(m, dtype=bool) for m in dirichlet_masks]

        with obs.span("ns.assemble"):
            ph = forms.phase_at_quad(mesh, prm, phi)
            # Advecting field: rho times the extrapolated velocity (CN
            # linearization) plus the diffusive mass flux J = J_coeff *
            # m(phi) grad(mu) (paper Eq. 1) with coefficient 1/Pe.
            vq = forms.field_at_quad(mesh, 2.0 * vel_n - vel_nm1)  # (e, q, dim)
            J_q = (
                prm.J_coeff()
                * mobility(ph.phi_q)[..., None]
                * forms.grad_at_quad(mesh, mu)
            )
            adv_q = ph.rho_q[..., None] * vq + (1.0 / prm.Pe) * J_q

            # Every Ke batch is fresh, so the sums run in place.
            Ke_M = forms.mass_ke(mesh, ph.rho_q)
            Ke_M /= dt
            # reactive-diffusive part M_rho/dt + K_eta/(2 Re), then convection
            Ke_ell = forms.stiffness_ke(mesh, ph.eta_q)
            Ke_ell *= 0.5 / prm.Re
            Ke_ell += Ke_M
            Ke_imp = forms.convection_ke(mesh, adv_q)
            Ke_imp *= 0.5
            Ke_imp += Ke_ell
            A_imp = plan.assemble(Ke_imp)

            # Elemental load of all components at once, (e, nc, dim):
            # Ke_exp v^n, the explicit pressure gradient -(1/We) d_i p^n,
            # gravity rho g_i / Fr, and the capillary stress — Eq. 1 carries
            # +(Cn/We) d_j(d_i phi d_j phi) on the LHS; moved to the RHS and
            # integrated by parts it is +(Cn/We) ∫ (d_i phi grad phi) · grad N.
            Ke_M *= 2.0
            Ke_M -= Ke_imp  # Ke_exp
            be = np.matmul(Ke_M, mesh.elem_gather(vel_n))
            src_q = (-1.0 / prm.We) * forms.grad_at_quad(mesh, p_n)
            gcoef = prm.gravity_coeff()
            for i, g_i in enumerate(prm.gravity_dir[:dim]):
                if gcoef and g_i:
                    src_q[..., i] += (gcoef * g_i) * ph.rho_q
            be += forms.source_be(mesh, src_q)
            for i in range(dim):
                flux = ph.grad_phi_q[..., i : i + 1] * ph.grad_phi_q  # (e,q,dim)
                be[..., i] += (prm.Cn / prm.We) * forms.flux_divergence_be(
                    mesh, flux
                )
            rhs = assemble_vector(mesh, be)  # (n_dofs, dim)
            if forcing is not None:
                rhs += forcing

        vel_new = np.zeros_like(vel_n)
        solves = []
        systems: dict = {}  # (matrix, preconditioner) per distinct mask
        for i, mask in enumerate(masks):
            key = None if mask is None else mask.tobytes()
            if key not in systems:
                A_i = A_imp if mask is None else plan.eliminate(A_imp, mask)
                systems[key] = A_i, JacobiPreconditioner(A_i)
            A_i, M_i = systems[key]
            rhs_i = rhs[:, i].copy()
            if mask is not None:
                vals = None if dirichlet_values is None else dirichlet_values[i]
                rhs_i = lift_dirichlet(A_imp, rhs_i, mask, vals)
            res = bicgstab(
                A_i,
                rhs_i,
                x0=vel_n[:, i].copy(),
                M=M_i,
                tol=tol,
                maxiter=4000,
            )
            obs.incr("ns.krylov_iterations", res.iterations)
            solves.append(res)
            vel_new[:, i] = res.x
        return NSResult(vel_star=vel_new, solves=solves)
