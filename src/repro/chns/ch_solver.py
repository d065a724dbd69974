"""CH-Solve: fully implicit advective Cahn-Hilliard block
(paper Sec. II-A, step 1 of the two-block projection scheme).

Unknowns are the mixed pair ``(phi, mu)`` (chemical potential), stacked as
``[phi; mu]``.  The nonlinear residual is solved by Newton with an
analytically assembled Jacobian that is the exact derivative of the
residual, so the iteration converges quadratically (``||F_{k+1}||`` within
``2e-3 ||F_k||^2`` on ``spinodal_2d``).  The degenerate mobility is
evaluated at the current Newton iterate, and its phi-derivative enters the
``(phi, phi)`` block as

  D_m[i, j] = ∫ m'(phi) N_j grad N_i · grad mu,

the transpose of a convection matrix advected by ``m'(phi) grad mu``.
``m'`` is the derivative of the *clamped* mobility: ``-phi / m`` where
``1 - phi^2`` is above ``_MOBILITY_FLOOR``, and 0 on the clamp, where
discrete over/undershoots of ±1 put the mobility at its floor.

Weak residual (no-flux boundaries are natural):

  R_phi = M (phi - phi_n)/dt + C(v) phi + (1/(Pe Cn)) K_m mu = 0
  R_mu  = M mu - P(psi'(phi)) - Cn^2 K phi = 0

and its Jacobian

  [[M/dt + C(v) + (1/(Pe Cn)) D_m,  (1/(Pe Cn)) K_m],
   [-M_psi'' - Cn^2 K,              M              ]]

with the implicit terms of the first row weighted by ``theta`` under
Crank-Nicolson.

Every matrix is a ``data`` vector on the mesh's one assembly-plan pattern,
and the Jacobian is those vectors placed by the plan's 2x2 block layout
(:meth:`repro.fem.plan.AssemblyPlan.block_2x2`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..fem.plan import get_plan
from ..la.newton import Factors, IterateCache, NewtonResult, newton_solve
from ..mesh.mesh import Mesh
from . import forms
from .free_energy import mobility, mobility_prime, psi_double_prime, psi_prime
from .params import CHNSParams


@dataclass
class CHResult:
    phi: np.ndarray
    mu: np.ndarray
    newton: NewtonResult


class CHSolver:
    """Reusable CH block for a fixed mesh (re-created after remeshing).

    The Newton LU factors live as long as the solver, i.e. one mesh: every
    ``solve`` starts from the factors the last one left, as a
    preconditioner behind the true-residual stopping test, so a ``dt``,
    ``theta`` or velocity change needs no invalidation.
    """

    def __init__(self, mesh: Mesh, params: CHNSParams):
        self.mesh = mesh
        self.params = params
        self.M = forms.mesh_mass(mesh)
        self.K = forms.stiffness(mesh)
        self._factors = Factors()

    def operators(
        self,
        phi_n: np.ndarray,
        mu_n: np.ndarray,
        vel: np.ndarray | None,
        dt: float,
        *,
        theta: float = 1.0,
        source_phi: np.ndarray | None = None,
    ):
        """The Newton callbacks ``(residual, jacobian, split)`` for one CH
        step (exposed so tests and benchmarks can probe single iterates).

        ``theta`` blends the evolutionary terms between backward Euler
        (``theta=1``, the default — the exact historical scheme) and
        Crank-Nicolson (``theta=0.5``, second order in time; the MMS
        temporal ladder runs here).  The chemical-potential equation is an
        algebraic constraint, not an evolution equation, so it stays fully
        implicit for every theta.  ``source_phi`` is a pre-assembled load
        vector (manufactured forcing) subtracted from the phi residual.

        ``residual`` and ``jacobian`` at one Newton iterate need the same
        mesh-wide products, the quad-point phi, the mobility there and the
        mobility stiffness: an :class:`IterateCache` keyed on the phi
        component builds them once per distinct phi (obs counters
        ``ch.phi_quad_evals`` / ``ch.mobility_assemblies``).  The Jacobian
        adds one ``psi''`` mass and one ``D_m`` scatter of its own.
        """
        mesh, prm = self.mesh, self.params
        n = mesh.n_dofs
        M, K = self.M, self.K
        C = forms.convection(mesh, vel) if vel is not None else None
        c = 1.0 / (prm.Pe * prm.Cn)
        Cn2 = prm.Cn**2
        cache = IterateCache()

        def split(x):
            return x[:n], x[n:]

        def at_quad(phi):
            def build():
                obs.incr("ch.phi_quad_evals")
                obs.incr("ch.mobility_assemblies")
                phi_q = forms.field_at_quad(mesh, phi)
                m_q = mobility(phi_q)
                return phi_q, m_q, forms.stiffness(mesh, m_q)

            return cache.get(phi, "phi_q, m, Km", build)

        # The Jacobian's constant blocks; a11 is what ``M / dt + theta * C``
        # computes on the shared pattern.
        a11 = M.data * (1.0 / dt)
        if C is not None:
            a11 = a11 + theta * C.data
        cn2_K = Cn2 * K.data
        plan = get_plan(mesh)
        old = None
        if theta != 1.0:
            # Old-time flux/advection load; the first residual, at
            # phi = phi_n, finds Km in the cache.
            old = c * (at_quad(phi_n)[2] @ mu_n)
            if C is not None:
                old = C @ phi_n + old
            old = (1.0 - theta) * old

        def residual(x):
            phi, mu = split(x)
            phi_q, _, Km = at_quad(phi)
            r_phi = M @ ((phi - phi_n) / dt)
            if C is not None:
                r_phi += theta * (C @ phi)
            r_phi += (theta * c) * (Km @ mu)
            if old is not None:
                r_phi += old
            if source_phi is not None:
                r_phi -= source_phi
            psi_load = forms.source(mesh, psi_prime(phi_q))
            r_mu = M @ mu - psi_load - Cn2 * (K @ phi)
            return np.concatenate([r_phi, r_mu])

        def jacobian(x):
            phi, mu = split(x)
            phi_q, m_q, Km = at_quad(phi)
            M_psi2 = forms.mass(mesh, psi_double_prime(phi_q))
            # d(Km mu)/dphi = ∫ m'(phi) N_j grad N_i · grad mu: the transpose
            # of the convection Ke advected by m'(phi) grad mu.
            flux = forms.grad_at_quad(mesh, mu)
            flux *= mobility_prime(phi_q, m_q)[..., None]
            D_m = plan.assemble(forms.convection_ke(mesh, flux, transpose=True))
            return plan.block_2x2(
                a11 + (theta * c) * D_m.data, (theta * c) * Km.data,
                -M_psi2.data - cn2_K, M.data,
            )

        return residual, jacobian, split

    def solve(
        self,
        phi_n: np.ndarray,
        mu_n: np.ndarray,
        vel: np.ndarray | None,
        dt: float,
        *,
        tol: float = 1e-9,
        theta: float = 1.0,
        source_phi: np.ndarray | None = None,
    ) -> CHResult:
        residual, jacobian, split = self.operators(
            phi_n, mu_n, vel, dt, theta=theta, source_phi=source_phi
        )
        x0 = np.concatenate([phi_n, mu_n])
        res = newton_solve(
            residual, jacobian, x0, tol=tol * max(np.linalg.norm(x0), 1.0),
            rtol=1e-8, maxiter=20, linear_tol=1e-10, factors=self._factors,
        )
        phi, mu = split(res.x)
        return CHResult(phi=phi, mu=mu, newton=res)

    def drop_factors(self) -> None:
        """Make the next ``solve`` factor afresh, as on a new solver."""
        self._factors.drop()

    def initial_mu(self, phi: np.ndarray) -> np.ndarray:
        """Consistent chemical potential for an initial phi (solve R_mu=0)."""
        from ..la.krylov import cg
        from ..la.precond import JacobiPreconditioner

        psi_q = psi_prime(forms.field_at_quad(self.mesh, phi))
        b = forms.source(self.mesh, psi_q) + self.params.Cn**2 * (self.K @ phi)
        res = cg(self.M, b, M=JacobiPreconditioner(self.M), tol=1e-12, maxiter=2000)
        return res.x
