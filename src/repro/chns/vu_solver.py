"""VU-Solve: velocity correction / projection (paper Sec. II-A, step 4).

The tentative velocity is corrected with the new pressure,

    v^{n+1} = v* - (dt / (We rho)) grad p,

realized as one mass solve *per direction*: the paper's memory remark —
splitting the update per component shrinks the assembled matrix from
``N x DIM x k`` to ``N x k`` nonzeros, and the mass matrix is assembled once
and reused for every direction (and every later step) until the mesh
changes, with no further Mat_Assembly calls.  Here "once" is once per mesh:
the matrix is :func:`repro.chns.forms.mesh_mass`, the one the CH block reads.

The Dirichlet-eliminated matrix is constant too, so everything built from it
is built once per (mesh, mask) and kept in ``mesh.memo``
(:func:`mass_system`): the Jacobi preconditioner and the sparse LU factors.
A step only lifts its right-hand sides.  Those of all directions are
assembled at once (one ``M @ v*`` on the ``(n_dofs, dim)`` array, one
``dim``-column load scatter), with ``1/rho`` at the quadrature points read
from :func:`repro.chns.forms.phase_at_quad`.

The paper solves this block with Jacobi-preconditioned Krylov.  Here two
properties of the input pick the solve, with no option:

* **Mesh size.**  Up to :data:`LU_MAX_DOFS` DOFs the factored matrix solves
  every direction that shares a mask with one ``lu.solve`` on the
  ``(n_dofs, k)`` right-hand side; above it the factorization costs more
  peak memory than its solves save time, and VU stays on Jacobi-CG.
* **Mesh lifetime.**  A solver's first block runs Jacobi-CG and factoring
  starts at its second, so a mesh that lives one block never pays for a
  factorization and a run's first step is the same with and without the
  direct path.  :meth:`VUSolver.drop_factors` starts the count again.

Every direct solve sits behind the CG stopping test (relative residual
below ``tol``); a direction that fails it is solved by the CG path instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .. import obs
from ..fem.assembly import eliminate_dirichlet, lift_dirichlet
from ..la.krylov import SolveResult, cg
from ..la.newton import STATIC_PIVOT
from ..la.precond import JacobiPreconditioner
from ..mesh.mesh import Mesh
from . import forms
from .params import CHNSParams


#: VU solves with LU factors of its eliminated mass matrix when
#: ``mesh.n_dofs`` is at most this, with Jacobi-CG above.  Measured
#: (DESIGN.md section 12): the factors win every block on every mesh, but
#: on ``cavity2d`` (7,265 DOFs) they buy 5 % of a step for +6-9 % peak
#: memory; the 427- and 561-DOF bubbles gain 10-20 %.
LU_MAX_DOFS = 2048


class MassSystem:
    """The mesh's mass matrix with one Dirichlet mask eliminated — the
    constant system of every VU direction (and every exact PP projection)
    that shares the mask.  Its Jacobi preconditioner and its sparse LU
    factors are built on first request."""

    def __init__(self, M, mask):
        self.A = M if mask is None else eliminate_dirichlet(M, mask)
        self._jacobi = None
        self.lu = None

    def jacobi(self) -> JacobiPreconditioner:
        if self._jacobi is None:
            self._jacobi = JacobiPreconditioner(self.A)
        return self._jacobi

    def factor(self) -> int:
        """Factor ``A`` unless it is: the number of factorizations this call
        made (0 or 1).  Static pivots: the symmetric positive-definite mass
        matrix needs none, and its users check their residuals."""
        if self.lu is not None:
            return 0
        self.lu = spla.splu(self.A.tocsc(), **STATIC_PIVOT)
        obs.incr("vu.lu_factorizations")
        return 1


def mass_system(mesh: Mesh, mask) -> MassSystem:
    """The :class:`MassSystem` of ``mesh`` for ``mask`` (None:
    unconstrained), built on first use and kept in ``mesh.memo``; equal
    masks share one."""
    systems = mesh.memo.setdefault("mass_systems", {})
    key = None if mask is None else np.asarray(mask, dtype=bool).tobytes()
    if key not in systems:
        systems[key] = MassSystem(forms.mesh_mass(mesh), mask)
    return systems[key]


@dataclass
class VUResult:
    vel: np.ndarray  # (n_dofs, dim) solenoidal velocity
    #: one per direction; a direct solve reports 0 iterations
    solves: list
    #: LU factorizations this solve made
    factorizations: int = 0


class VUSolver:
    def __init__(self, mesh: Mesh, params: CHNSParams):
        self.mesh = mesh
        self.params = params
        # Assembled once per mesh; reused across directions and steps.
        self.M = forms.mesh_mass(mesh)
        self._blocks = 0  # solves since construction or drop_factors()

    def drop_factors(self) -> None:
        """Forget the mesh's mass factors and restart the first-block rule:
        the next solve runs as on a fresh solver."""
        self._blocks = 0
        for system in self.mesh.memo.get("mass_systems", {}).values():
            system.lu = None

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

        rhs, systems = [], []
        for i in range(dim):
            rhs_i = rhs_all[:, i].copy()
            mask = None
            if dirichlet_masks is not None:
                mask = np.asarray(dirichlet_masks[i], dtype=bool)
                vals = None if dirichlet_values is None else dirichlet_values[i]
                rhs_i = lift_dirichlet(self.M, rhs_i, mask, vals)
            rhs.append(rhs_i)
            systems.append(mass_system(mesh, mask))

        solves = [None] * dim
        factorizations = 0
        if self._blocks > 0 and mesh.n_dofs <= LU_MAX_DOFS:
            groups: dict = {}
            for i, system in enumerate(systems):
                groups.setdefault(id(system), []).append(i)
            for cols in groups.values():
                system = systems[cols[0]]
                factorizations += system.factor()
                B = np.column_stack([rhs[i] for i in cols])
                X = system.lu.solve(B)
                bnorm = np.linalg.norm(B, axis=0)
                res = np.linalg.norm(B - system.A @ X, axis=0) / np.where(
                    bnorm > 0.0, bnorm, 1.0
                )
                for j, i in enumerate(cols):
                    if res[j] < tol:  # False for NaN: CG takes over
                        solves[i] = SolveResult(X[:, j], 0, res[j], True)
        self._blocks += 1

        vel = np.zeros_like(vel_star)
        for i, system in enumerate(systems):
            if solves[i] is None:
                solves[i] = cg(
                    system.A, rhs[i], x0=vel_star[:, i].copy(),
                    M=system.jacobi(), tol=tol, maxiter=3000,
                )
            vel[:, i] = solves[i].x
        return VUResult(vel=vel, solves=solves, factorizations=factorizations)
