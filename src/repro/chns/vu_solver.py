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
(:func:`mass_system`): the matrix itself, eliminated through the plan's
layout of the mask (the one NS uses), the Jacobi preconditioner and the
sparse LU factors.  A step only lifts its right-hand sides (through the
same layout); those of all directions are assembled at once (one ``M @
v*`` on the ``(n_dofs, dim)`` array, one ``dim``-column load scatter),
with ``1/rho`` at the quadrature points read from
:func:`repro.chns.forms.phase_at_quad`.

The paper solves this block with Jacobi-preconditioned Krylov.  Here the
matrix is constant on a mesh, so its factors are exact: whenever they are
held, every direction that shares a mask is one float64 ``lu.solve`` on the
``(n_dofs, k)`` right-hand side, with no Krylov iteration.  A block may make
them under the predicate every flow block states,
:func:`repro.la.factors.may_factor`, with no option: not the solver's first
block (a run's first step is the same with and without the direct path),
the mesh within VU's cap (per dimension: in 2D the factors cost the memory
PP's held factors already do, in 3D their fill grows several times faster
than the time their solves save), and not the mesh's last block.

Factors already held are used on any block.  They live in the mesh's
``memo``, so in ``pp_mode="schur"`` VU uses those the exact PP projection
made from the first block on.  :meth:`VUSolver.drop_factors` drops them and
starts the count again.

Every direct solve sits behind the CG stopping test (relative residual
below ``tol``); a direction that fails it is solved by the CG path instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .. import obs
from ..fem.plan import get_plan
from ..la.factors import STATIC_PIVOT, may_factor
from ..la.krylov import SolveResult, cg
from ..la.precond import JacobiPreconditioner
from ..mesh.mesh import Mesh
from . import forms
from .params import CHNSParams


class MassSystem:
    """The mesh's mass matrix with one Dirichlet mask eliminated through
    the mesh's plan — the constant system of every VU direction (and every
    exact PP projection) that shares the mask.  Its Jacobi preconditioner
    and its sparse LU factors are built on first request."""

    def __init__(self, mesh: Mesh, mask):
        M = forms.mesh_mass(mesh)
        self.A = M if mask is None else get_plan(mesh).eliminate(M, mask)
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
        return 1


def mass_system(mesh: Mesh, mask) -> MassSystem:
    """The :class:`MassSystem` of ``mesh`` for ``mask`` (None:
    unconstrained), built on first use and kept in ``mesh.memo``; equal
    masks share one."""
    systems = mesh.memo.setdefault("mass_systems", {})
    key = None if mask is None else np.asarray(mask, dtype=bool).tobytes()
    if key not in systems:
        systems[key] = MassSystem(mesh, mask)
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
        last_block: bool = False,
    ) -> VUResult:
        """``last_block``: the mesh is replaced after this block, so held
        factors are used but none are made."""
        mesh, prm = self.mesh, self.params
        dim = mesh.dim
        with obs.span("vu.assemble"):
            inv_rho_q = forms.phase_at_quad(mesh, prm, phi).inv_rho_q
            grad_p_q = forms.grad_at_quad(mesh, p)  # (e, q, dim)
            for i in range(dim):  # per component: no dim-long inner loop
                np.multiply(inv_rho_q, grad_p_q[..., i], out=grad_p_q[..., i])
            rhs_all = self.M @ vel_star - (dt / prm.We) * forms.source(
                mesh, grad_p_q
            )

        plan = get_plan(mesh)
        rhs, systems = [], []
        for i in range(dim):
            mask = None
            if dirichlet_masks is None:
                rhs_i = rhs_all[:, i].copy()
            else:
                mask = np.asarray(dirichlet_masks[i], dtype=bool)
                vals = None if dirichlet_values is None else dirichlet_values[i]
                rhs_i = plan.lift(self.M, rhs_all[:, i], mask, vals)
            rhs.append(rhs_i)
            systems.append(mass_system(mesh, mask))

        factoring = may_factor(
            "vu", mesh, blocks_run=self._blocks, last_block=last_block
        )
        self._blocks += 1
        solves = [None] * dim
        factorizations = 0
        groups: dict = {}
        for i, system in enumerate(systems):
            groups.setdefault(id(system), []).append(i)
        for cols in groups.values():
            system = systems[cols[0]]
            if system.lu is None and not factoring:
                continue
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

        vel = np.zeros_like(vel_star)
        for i, system in enumerate(systems):
            if solves[i] is None:
                solves[i] = cg(
                    system.A, rhs[i], x0=vel_star[:, i].copy(),
                    M=system.jacobi(), tol=tol, maxiter=3000,
                )
            vel[:, i] = solves[i].x
        return VUResult(vel=vel, solves=solves, factorizations=factorizations)
