"""Two-block projection time stepper for CHNS (paper Sec. II-A).

Each block performs the four solves in order — CH, NS, PP, VU — and each
timestep runs ``n_blocks`` blocks (the paper's scheme, from Khanwale et al.,
uses two).  Built with ``flow=False`` the stepper is the same loop without
its flow blocks — a Cahn-Hilliard-only run.  Per-block wall time is the
:mod:`repro.obs` span tree ``chns.step/{remesh,ch,ns,pp,vu}``.

Optional AMR: every ``remesh_every`` steps the local-Cahn identifier and the
multi-level refine/coarsen/balance/transfer pipeline rebuild the mesh, after
which the block solvers are reconstructed (operators depend on the mesh).
A cycle that reproduces the tree returns the same mesh, and the stepper
keeps its fields and its solvers, held factors included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .. import obs
from ..amr.driver import RemeshConfig, remesh
from ..la.newton import NewtonResult
from ..mesh.mesh import Mesh
from . import forms
from .ch_solver import CHSolver
from .free_energy import ginzburg_landau_energy, total_mass
from .ns_solver import NSSolver
from .params import CHNSParams
from .pp_solver import PPSolver
from .vu_solver import VUSolver


@dataclass
class Diagnostics:
    mass: float
    energy: float
    div_l2: float
    phi_min: float
    phi_max: float
    n_elems: int


class CHNSTimeStepper:
    """Owns the mesh, the field state, and the block solvers."""

    def __init__(
        self,
        mesh: Mesh,
        params: CHNSParams,
        *,
        flow: bool = True,
        n_blocks: int = 1,
        velocity_bc: Optional[Callable[[Mesh], tuple]] = None,
        remesh_config: Optional[RemeshConfig] = None,
        remesh_every: int = 0,
        precond: Optional[str] = None,
        ns_forcing: Optional[Callable] = None,
        pp_mode: str = "split",
    ):
        """``flow=False`` is a Cahn-Hilliard-only run: no NS/PP/VU solvers
        are built, ``vel``, ``vel_old`` and ``p`` stay ``None`` and each
        block is the CH solve with no advecting velocity.

        ``precond`` is a vestigial key: ``None`` / ``"jacobi"`` is its only
        legal value (NS and PP pick their preconditioners from the mesh size
        and the solver's lifetime, DESIGN.md section 12).
        ``ns_forcing`` is a manufactured momentum forcing ``f(x, t)`` (vector
        valued) — the MMS hook; the CH block is backward Euler.

        ``pp_mode`` selects the pressure-splitting flavor:

        * ``"split"`` (default, historical): each block's Poisson solve
          rebuilds the pressure from ``div v*`` and the stored field is the
          splitting variable — the momentum predictor's explicit ``grad p^n``
          plus the correction's ``grad p^{n+1}`` make the *effective*
          pressure ``p^n + p^{n+1} ~ 2 p``.
        * ``"schur"``: the momentum predictor carries the full accumulated
          pressure and ``p += delta``, with the *exact* discrete Schur
          projection (``PPSolver.solve(exact_projection=True)``) —
          the corrected velocity's weak divergence is pinned to the solver
          tolerance every step, so neither the O(h^2) grad/div adjointness
          residue nor the Dirichlet-clamp leakage can accumulate.  The
          configuration the temporal MMS ladders in :mod:`repro.verify`
          measure; too expensive per step for production scenarios.
        """
        self.params = params
        self.flow = flow
        self.n_blocks = n_blocks
        self.velocity_bc = velocity_bc
        self.remesh_config = remesh_config
        self.remesh_every = remesh_every
        if precond not in (None, "jacobi"):
            raise ValueError(f"unknown precond {precond!r}")
        if pp_mode not in ("split", "schur"):
            raise ValueError(f"unknown pp_mode {pp_mode!r}")
        self.pp_mode = pp_mode
        self.ns_forcing = ns_forcing
        self.t = 0.0
        self.step_count = 0
        self.vel = self.vel_old = self.p = None
        #: :class:`~repro.la.newton.NewtonResult` of the most recent CH
        #: solve (the last block's when ``n_blocks > 1``); callers decide
        #: what a non-converged one means.
        self.last_newton: Optional[NewtonResult] = None
        #: cumulative work, one key per count: the CH block's Newton
        #: iterations, line-search trials, BiCGStab iterations, LU
        #: factorizations and fallbacks; the NS/PP held-factor and the VU
        #: mass-matrix LU factorizations; the NS/PP fallbacks (held factors
        #: that failed, the solve redone by the block's own solver); Krylov
        #: iterations (NS/PP/VU, also per block; a direct VU solve counts
        #: 0) and the NS/PP/VU solves that returned ``converged=False``;
        #: the remesh cycles and those that kept the mesh.  This dict is
        #: the job record's ``counts`` and the checkpoint's.
        self.iteration_counts = {
            "newton": 0,
            "line_search_trials": 0,
            "ch_linear": 0,
            "ch_factorizations": 0,
            "ns_factorizations": 0,
            "pp_factorizations": 0,
            "vu_factorizations": 0,
            "ch_fallbacks": 0,
            "ns_fallbacks": 0,
            "pp_fallbacks": 0,
            "krylov": 0,
            "krylov_ns": 0,
            "krylov_pp": 0,
            "krylov_vu": 0,
            "krylov_unconverged": 0,
            "remesh_cycles": 0,
            "remesh_unchanged": 0,
        }
        self._bind_mesh(mesh)

    # ------------------------------------------------------------- state

    def _bind_mesh(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self.ch = CHSolver(mesh, self.params)
        if self.flow:
            self.ns = NSSolver(mesh, self.params)
            self.pp = PPSolver(mesh, self.params)
            self.vu = VUSolver(mesh, self.params)
        if self.velocity_bc is not None:
            self.v_masks, self.v_values = self.velocity_bc(mesh)
        else:
            self.v_masks = self.v_values = None

    def initialize(self, phi0: Callable[[np.ndarray], np.ndarray]) -> None:
        """Set phi from a function of unit-cube coordinates; velocity and
        pressure start at rest; mu is made consistent with phi."""
        mesh = self.mesh
        self.t = 0.0
        self.phi = mesh.interpolate(phi0)
        self.mu = self.ch.initial_mu(self.phi)
        if not self.flow:
            return
        self.vel = np.zeros((mesh.n_dofs, mesh.dim))
        self.vel_old = np.zeros_like(self.vel)
        self.p = np.zeros(mesh.n_dofs)
        if self.v_masks is not None and self.v_values is not None:
            for i in range(mesh.dim):
                self.vel[self.v_masks[i], i] = self.v_values[i][self.v_masks[i]]
                self.vel_old[:, i] = self.vel[:, i]

    def fields(self) -> Dict[str, np.ndarray]:
        """The state as a flat ``name -> nodal vector`` dict of views:
        ``phi``, ``mu`` and, with flow, ``p``, ``v{i}``, ``vold{i}`` — the
        form remesh transfers and checkpoints store."""
        out = {"phi": self.phi, "mu": self.mu}
        if self.flow:
            out["p"] = self.p
            for i in range(self.mesh.dim):
                out[f"v{i}"] = self.vel[:, i]
                out[f"vold{i}"] = self.vel_old[:, i]
        return out

    def set_fields(self, fields: Dict[str, np.ndarray]) -> None:
        """Replace the state with ``fields`` (the keys of :meth:`fields`,
        vectors on the current mesh; extra keys are ignored)."""
        n, dim = self.mesh.n_dofs, self.mesh.dim
        self.phi, self.mu = np.empty(n), np.empty(n)
        if self.flow:
            self.p = np.empty(n)
            self.vel, self.vel_old = np.empty((n, dim)), np.empty((n, dim))
        for name, view in self.fields().items():  # writes through the views
            if np.shape(fields[name]) != (n,):
                raise ValueError(
                    f"set_fields: {name} has shape {np.shape(fields[name])}, "
                    f"expected {(n,)} for this mesh"
                )
            view[:] = fields[name]

    def restore(
        self,
        fields: Dict[str, np.ndarray],
        *,
        step_count: int,
        t: Optional[float] = None,
        iteration_counts: Optional[Dict[str, int]] = None,
    ) -> None:
        """Resume from checkpointed state instead of :meth:`initialize`.

        The only solver state the evolution carries across steps is the
        LU factors the CH, NS, PP and VU blocks hold, with the flow
        blocks' first-block counts (assembly plans are pure functions of
        the mesh), and a restored stepper starts without any: restoring
        :meth:`fields` and the step count reproduces, bit for bit, an
        uninterrupted run that called :meth:`drop_solver_state` after the
        step they were captured at — the contract the scenario
        checkpoint/restart test pins down.  ``iteration_counts`` carries
        the cumulative work counts over.
        """
        self.set_fields(fields)
        self.step_count = int(step_count)
        if t is not None:
            self.t = float(t)
        self.iteration_counts.update(iteration_counts or {})

    def drop_solver_state(self) -> None:
        """Forget what the solvers carry from step to step (the LU factors
        of every block, the flow blocks' first-block rule): the next step
        runs as on a freshly restored stepper."""
        self.ch.drop_factors()
        if self.flow:
            for solver in (self.ns, self.pp, self.vu):
                solver.drop_factors()

    # -------------------------------------------------------------- step

    def step(self, dt: float) -> None:
        """One timestep: remesh when due, then ``n_blocks`` blocks of CH
        (followed by NS -> PP -> VU with flow)."""
        with obs.span("chns.step"):
            if (
                self.remesh_every
                and self.remesh_config is not None
                and self.step_count > 0
                and self.step_count % self.remesh_every == 0
            ):
                with obs.span("chns.remesh"):
                    new_mesh, new_fields, info = remesh(
                        self.mesh, self.fields(), self.remesh_config
                    )
                    if not info.unchanged:
                        self._bind_mesh(new_mesh)
                        self.set_fields(new_fields)
                self.iteration_counts["remesh_cycles"] += 1
                self.iteration_counts["remesh_unchanged"] += int(info.unchanged)

            dt_b = dt / self.n_blocks
            remeshes_next = self._remeshes_next()
            for k in range(self.n_blocks):
                t_n = self.t + k * dt_b
                with obs.span("chns.ch"):
                    ch_res = self.ch.solve(self.phi, self.mu, self.vel, dt_b)
                    self.phi, self.mu = ch_res.phi, ch_res.mu
                self.last_newton = newton = ch_res.newton
                self.iteration_counts["newton"] += newton.iterations
                self.iteration_counts["line_search_trials"] += (
                    newton.line_search_trials
                )
                self.iteration_counts["ch_linear"] += newton.linear_iterations
                self.iteration_counts["ch_factorizations"] += newton.factorizations
                self.iteration_counts["ch_fallbacks"] += newton.fallbacks
                if self.flow:
                    self._flow_block(
                        dt_b, self._ns_load(t_n, dt_b),
                        last_block=remeshes_next and k == self.n_blocks - 1,
                    )
            obs.incr("chns.steps")
            obs.gauge("chns.n_elems", self.mesh.n_elems)

        self.t += dt
        self.step_count += 1

    def _remeshes_next(self) -> bool:
        """The next step starts with a remesh: this step's last block is its
        mesh's last, on which the flow blocks make no factors."""
        return bool(
            self.remesh_every
            and self.remesh_config is not None
            and (self.step_count + 1) % self.remesh_every == 0
        )

    def _flow_block(self, dt_b: float, ns_forcing, *,
                    last_block: bool) -> None:
        """NS -> PP -> VU of one block, from the block's new ``phi``/``mu``;
        ``last_block``: the mesh's last."""
        with obs.span("chns.ns"):
            ns_res = self.ns.solve(
                self.phi,
                self.mu,
                self.vel,
                self.vel_old,
                self.p,
                dt_b,
                dirichlet_masks=self.v_masks,
                dirichlet_values=self.v_values,
                forcing=ns_forcing,
                last_block=last_block,
            )
        with obs.span("chns.pp"):
            # Splitting note ("split" mode): the momentum predictor
            # carried grad p^n explicitly and the correction applies
            # grad p^{n+1}, so the *effective* pressure of the
            # scheme is p^n + p^{n+1} ~ 2 p — the stored field is
            # the splitting variable, half the physical pressure.
            # Naive accumulation (p += delta) on the absolute RHS is
            # NOT an option: the pointwise-gradient correction and
            # the weak-divergence Poisson RHS are not discrete
            # adjoints, and the O(h^2) mismatch re-amplified by the
            # 1/dt Poisson scaling makes an accumulated pressure
            # drift without bound.  "schur" mode accumulates safely:
            # its exact projection re-zeros the full divergence every
            # step, so nothing survives to be re-amplified.
            schur = self.pp_mode == "schur"
            pp_res = self.pp.solve(
                self.phi, ns_res.vel_star, dt_b,
                p0=None if schur else self.p,
                exact_projection=schur,
                correction_masks=self.v_masks if schur else None,
                last_block=last_block,
            )
            if schur:
                self.p = self.p + pp_res.p
                self.p -= self.p.mean()
            else:
                self.p = pp_res.p
        with obs.span("chns.vu"):
            vu_res = self.vu.solve(
                self.phi,
                ns_res.vel_star,
                pp_res.p,
                dt_b,
                dirichlet_masks=self.v_masks,
                dirichlet_values=self.v_values,
                last_block=last_block,
            )
        self.vel_old = self.vel
        self.vel = vu_res.vel
        self.iteration_counts["ns_factorizations"] += ns_res.factorizations
        self.iteration_counts["pp_factorizations"] += pp_res.factorizations
        self.iteration_counts["vu_factorizations"] += vu_res.factorizations
        self.iteration_counts["ns_fallbacks"] += ns_res.fallbacks
        self.iteration_counts["pp_fallbacks"] += pp_res.fallbacks
        it_ns = sum(s.iterations for s in ns_res.solves)
        it_pp = pp_res.solve.iterations
        it_vu = sum(s.iterations for s in vu_res.solves)
        self.iteration_counts["krylov"] += it_ns + it_pp + it_vu
        self.iteration_counts["krylov_ns"] += it_ns
        self.iteration_counts["krylov_pp"] += it_pp
        self.iteration_counts["krylov_vu"] += it_vu
        self.iteration_counts["krylov_unconverged"] += sum(
            not s.converged
            for s in (*ns_res.solves, pp_res.solve, *vu_res.solves)
        )

    def _ns_load(self, t_n: float, dt_b: float):
        """Assembled ``ns_forcing`` load for one block starting at ``t_n``
        (None without forcing): the trapezoidal average matching the CN
        predictor."""
        f = self.ns_forcing
        if f is None:
            return None
        return 0.5 * (
            forms.source_at(self.mesh, f, t_n)
            + forms.source_at(self.mesh, f, t_n + dt_b)
        )

    # -------------------------------------------------------- diagnostics

    def diagnostics(self) -> Diagnostics:
        return Diagnostics(
            mass=total_mass(self.mesh, self.phi),
            energy=ginzburg_landau_energy(self.mesh, self.phi, self.params.Cn),
            div_l2=forms.divergence_l2(self.mesh, self.vel) if self.flow else 0.0,
            phi_min=float(self.phi.min()),
            phi_max=float(self.phi.max()),
            n_elems=self.mesh.n_elems,
        )


def no_slip_bc(mesh: Mesh):
    """All-wall no-slip velocity boundary conditions."""
    masks = [mesh.boundary_dof_mask() for _ in range(mesh.dim)]
    values = [np.zeros(mesh.n_dofs) for _ in range(mesh.dim)]
    return masks, values


def lid_driven_bc(mesh: Mesh, lid_speed: float = 1.0):
    """No-slip walls with a moving top lid (classic cavity flow)."""
    masks, values = no_slip_bc(mesh)
    top = mesh.face_dof_mask(1, 1)
    values[0][top] = lid_speed
    return masks, values


def jet_inflow_bc(mesh: Mesh, half_width: float = 0.08, speed: float = 1.0):
    """Left-wall inflow over |y - 0.5| < half_width, no-slip elsewhere,
    natural outflow on the right wall."""
    dim = mesh.dim
    xy = mesh.dof_xy()
    boundary = mesh.boundary_dof_mask()
    right = mesh.face_dof_mask(0, 1)
    masks = [boundary & ~right for _ in range(dim)]
    values = [np.zeros(mesh.n_dofs) for _ in range(dim)]
    inflow = mesh.face_dof_mask(0, 0) & (np.abs(xy[:, 1] - 0.5) < half_width)
    values[0][inflow] = speed
    return masks, values
