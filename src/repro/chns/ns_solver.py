"""NS-Solve: semi-implicit Crank-Nicolson momentum predictor
(paper Sec. II-A, step 2).

Mixture density/viscosity come from the freshly solved phi.  Convection is
linearized about the extrapolated velocity ``v* = 2 v^n - v^{n-1}``
("the explicit parts ... avoid an expensive setup of Newton iteration for
NS").  The same operator serves every velocity component, so it is
assembled once per step and reused DIM times — the paper's VU-solve memory
remark applied one block earlier.

Momentum weak form per component i (all terms non-dimensional, Eq. 1):

  [M_rho/dt + (C_rho(v*) + C_J)/2 + K_eta/(2 Re)] v_i^{n+1}
      = [M_rho/dt - (C_rho(v*) + C_J)/2 - K_eta/(2 Re)] v_i^n
        - (1/We) G_i p^n + (Cn/We) S_i(phi) + (rho g_i / Fr) M 1

with S_i the capillary term ``∫ (d_i phi)(grad phi) · grad N`` (integration
by parts of the paper's div(grad phi ⊗ grad phi)), and C_J the convection by
the diffusive flux ``J = J_coeff * m(phi) grad mu`` scaled by 1/Pe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..fem.assembly import apply_dirichlet
from ..la.krylov import bicgstab
from ..la.precond import JacobiPreconditioner, make_preconditioner
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
        precond: str = "jacobi",
        forcing: np.ndarray | None = None,
    ) -> NSResult:
        """``precond`` names the inner-solve preconditioner (see
        :func:`repro.la.precond.make_preconditioner`); ``"jacobi"`` is the
        historical default.  ``"pcd"`` runs a GMG V-cycle on the elliptic
        part ``M_rho/dt + K_eta/(2 Re)`` of the momentum operator.
        ``forcing`` is a pre-assembled load vector (n_dofs, dim) added to
        each component RHS — the MMS manufactured-solution hook."""
        mesh, prm = self.mesh, self.params
        dim = mesh.dim

        with obs.span("ns.assemble"):
            phi_q = forms.field_at_quad(mesh, phi)
            rho_q = prm.rho_clamped(phi_q)
            eta_q = prm.eta_clamped(phi_q)

            # Extrapolated advecting velocity (CN linearization).
            v_star = 2.0 * vel_n - vel_nm1
            vq = forms.field_at_quad(mesh, v_star)  # (e, q, dim)
            # Diffusive mass flux J = J_coeff * m(phi) grad(mu) (paper Eq. 1),
            # advected with coefficient 1/Pe.
            grad_mu_q = forms.grad_at_quad(mesh, mu)
            J_q = prm.J_coeff() * mobility(phi_q)[..., None] * grad_mu_q
            adv_q = rho_q[..., None] * vq + (1.0 / prm.Pe) * J_q

            M_rho = forms.mass(mesh, rho_q)
            C = forms.convection(mesh, v_star, rho_q)  # rho v* · grad
            C_J = forms.convection_from_quad(mesh, (1.0 / prm.Pe) * J_q)
            K_eta = forms.stiffness(mesh, eta_q)

            A_imp = (M_rho / dt + 0.5 * (C + C_J) + (0.5 / prm.Re) * K_eta).tocsr()
            A_exp = (M_rho / dt - 0.5 * (C + C_J) - (0.5 / prm.Re) * K_eta).tocsr()

            # Capillary force (Cn/We) div(grad phi ⊗ grad phi), by parts:
            # F_i = -(Cn/We) ∫ (d_i phi) grad phi · grad N.
            grad_phi_q = forms.grad_at_quad(mesh, phi)  # (e, q, dim)
            grad_p_q = forms.grad_at_quad(mesh, p_n)

            if precond == "pcd":
                # PCD drops the convection block: the V-cycle runs on the
                # symmetric reactive-diffusive part only.
                A_ell = (M_rho / dt + (0.5 / prm.Re) * K_eta).tocsr()

        vel_new = np.zeros_like(vel_n)
        solves = []
        pcd_cache: dict = {}
        for i in range(dim):
            rhs = A_exp @ vel_n[:, i]
            if forcing is not None:
                rhs = rhs + forcing[:, i]
            # Pressure gradient (1/We) d_i p, explicit at t^n.
            rhs -= (1.0 / prm.We) * forms.source(mesh, grad_p_q[..., i])
            # Capillary stress: Eq. 1 carries +(Cn/We) d_j(d_i phi d_j phi)
            # on the LHS; moved to the RHS and integrated by parts it
            # becomes +(Cn/We) ∫ (d_i phi grad phi) · grad N.
            flux = grad_phi_q[..., i : i + 1] * grad_phi_q  # (e,q,dim)
            rhs += (prm.Cn / prm.We) * forms.flux_divergence_load(mesh, flux)
            # Gravity rho g_i / Fr.
            gcoef = prm.gravity_coeff()
            if gcoef and i < len(prm.gravity_dir) and prm.gravity_dir[i]:
                rhs += gcoef * prm.gravity_dir[i] * forms.source(mesh, rho_q)

            if dirichlet_masks is not None:
                mask = dirichlet_masks[i]
                vals = (
                    dirichlet_values[i]
                    if dirichlet_values is not None
                    else np.zeros(mesh.n_dofs)
                )
                A_i, rhs_i = apply_dirichlet(A_imp, rhs, mask, vals)
            else:
                mask = None
                A_i, rhs_i = A_imp, rhs
            if precond == "jacobi":
                M_i = JacobiPreconditioner(A_i)
            elif precond == "pcd":
                # Components sharing a Dirichlet mask (the common case)
                # share one GMG hierarchy + Galerkin chain.
                key = None if mask is None else mask.tobytes()
                M_i = pcd_cache.get(key)
                if M_i is None:
                    if mask is None:
                        A_e = A_ell
                    else:
                        A_e, _ = apply_dirichlet(
                            A_ell, np.zeros(mesh.n_dofs), mask,
                            np.zeros(mesh.n_dofs),
                        )
                    M_i = make_preconditioner("pcd", A_i, mesh=mesh, elliptic=A_e)
                    pcd_cache[key] = M_i
            else:
                M_i = make_preconditioner(precond, A_i)
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
