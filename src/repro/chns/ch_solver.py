"""CH-Solve: fully implicit advective Cahn-Hilliard block
(paper Sec. II-A, step 1 of the two-block projection scheme).

Unknowns are the mixed pair ``(phi, mu)`` (chemical potential), stacked as
``[phi; mu]``.  The nonlinear residual is solved by Newton with an
analytically assembled Jacobian; the degenerate mobility is evaluated at the
current Newton iterate (its phi-derivative is dropped from the Jacobian — a
standard quasi-Newton simplification protected by the line search).

Weak residual (no-flux boundaries are natural):

  R_phi = M (phi - phi_n)/dt + C(v) phi + (1/(Pe Cn)) K_m mu = 0
  R_mu  = M mu - P(psi'(phi)) - Cn^2 K phi = 0
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..fem.operators import value_at_quad
from ..la.newton import Factors, IterateCache, NewtonResult, newton_solve
from ..mesh.mesh import Mesh
from . import forms
from .free_energy import mobility, psi_double_prime, psi_prime
from .params import CHNSParams


@dataclass
class CHResult:
    phi: np.ndarray
    mu: np.ndarray
    newton: NewtonResult


class CHSolver:
    """Reusable CH block for a fixed mesh (re-created after remeshing).

    ``residual`` and ``jacobian`` at one Newton iterate need the same two
    expensive mesh-wide products — the quad-point phi evaluation and the
    mobility-stiffness assembly.  A per-iterate :class:`IterateCache` keyed
    on the phi component shares them, so each iterate pays for exactly one
    mobility-stiffness assembly and one ``field_at_quad`` instead of two
    (``self.counters`` records both, pinned down by the tests).

    The Newton LU factors live as long as the solver, i.e. one
    ``Mesh.generation``: every ``solve`` starts from the factors the last
    one left, as a preconditioner behind the true-residual stopping test,
    so a ``dt``, ``theta`` or velocity change needs no invalidation.
    """

    def __init__(self, mesh: Mesh, params: CHNSParams):
        self.mesh = mesh
        self.params = params
        self.M = forms.mass(mesh)
        self.K = forms.stiffness(mesh)
        self._iterate = IterateCache()
        self._factors = Factors()
        self.counters = {
            "mobility_assemblies": 0,
            "phi_quad_evals": 0,
            "residual_evals": 0,
            "jacobian_evals": 0,
        }

    def _phi_at_quad(self, phi: np.ndarray) -> np.ndarray:
        def build():
            self.counters["phi_quad_evals"] += 1
            obs.incr("ch.phi_quad_evals")
            return forms.field_at_quad(self.mesh, phi)

        return self._iterate.get(phi, "phi_q", build)

    def _mobility_stiffness(self, phi: np.ndarray) -> sp.csr_matrix:
        phi_q = self._phi_at_quad(phi)

        def build():
            self.counters["mobility_assemblies"] += 1
            obs.incr("ch.mobility_assemblies")
            return forms.stiffness(self.mesh, mobility(phi_q))

        return self._iterate.get(phi, "Km", build)

    def operators(
        self,
        phi_n: np.ndarray,
        mu_n: np.ndarray,
        vel: np.ndarray | None,
        dt: float,
        *,
        theta: float = 1.0,
        source_phi: np.ndarray | None = None,
        source_mu: np.ndarray | None = None,
    ):
        """The Newton callbacks ``(residual, jacobian, split)`` for one CH
        step (exposed so tests and benchmarks can probe single iterates).

        ``theta`` blends the evolutionary terms between backward Euler
        (``theta=1``, the default — the exact historical scheme) and
        Crank-Nicolson (``theta=0.5``, second order in time; the MMS
        temporal ladder runs here).  The chemical-potential equation is an
        algebraic constraint, not an evolution equation, so it stays fully
        implicit for every theta.  ``source_phi``/``source_mu`` are
        pre-assembled load vectors (manufactured forcing) subtracted from
        the residuals.
        """
        mesh, prm = self.mesh, self.params
        n = mesh.n_dofs
        M, K = self.M, self.K
        Cv = (
            forms.convection(mesh, vel)
            if vel is not None
            else sp.csr_matrix((n, n))
        )
        mob_coeff = 1.0 / (prm.Pe * prm.Cn)
        Cn2 = prm.Cn**2
        if theta != 1.0:
            # Old-time flux/advection contributions, assembled once.
            Km_n = forms.stiffness(
                mesh, mobility(forms.field_at_quad(mesh, phi_n))
            )
            expl = (1.0 - theta) * (
                Cv @ phi_n + mob_coeff * (Km_n @ mu_n)
            )
        else:
            expl = None

        def split(x):
            return x[:n], x[n:]

        def residual(x):
            self.counters["residual_evals"] += 1
            phi, mu = split(x)
            Km = self._mobility_stiffness(phi)
            if theta == 1.0:
                r_phi = (
                    M @ ((phi - phi_n) / dt)
                    + Cv @ phi
                    + mob_coeff * (Km @ mu)
                )
            else:
                r_phi = (
                    M @ ((phi - phi_n) / dt)
                    + theta * (Cv @ phi + mob_coeff * (Km @ mu))
                    + expl
                )
            if source_phi is not None:
                r_phi = r_phi - source_phi
            psi_q = psi_prime(self._phi_at_quad(phi))
            r_mu = M @ mu - forms.source(mesh, psi_q) - Cn2 * (K @ phi)
            if source_mu is not None:
                r_mu = r_mu - source_mu
            return np.concatenate([r_phi, r_mu])

        def jacobian(x):
            self.counters["jacobian_evals"] += 1
            phi, mu = split(x)
            Km = self._mobility_stiffness(phi)
            if theta == 1.0:
                J11 = M / dt + Cv
                J12 = mob_coeff * Km
            else:
                J11 = M / dt + theta * Cv
                J12 = (theta * mob_coeff) * Km
            psi2_q = psi_double_prime(self._phi_at_quad(phi))
            M_psi2 = forms.mass(mesh, psi2_q)
            J21 = -M_psi2 - Cn2 * K
            J22 = M
            return sp.bmat([[J11, J12], [J21, J22]], format="csr")

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
        source_mu: np.ndarray | None = None,
    ) -> CHResult:
        residual, jacobian, split = self.operators(
            phi_n, mu_n, vel, dt,
            theta=theta, source_phi=source_phi, source_mu=source_mu,
        )
        self._iterate.clear()
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
