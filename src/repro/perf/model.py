"""Calibration utilities and the full-application scaling model (Fig. 5).

``fit_ghost_coeff`` turns simulator ghost-exchange measurements into a
model constant.  ``ApplicationModel`` composes per-solver models out of measured
iteration counts and the machine model; it produces the NS/PP/VU/CH and
remeshing curves of the paper's application-scaling study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .machine import MachineModel


def fit_ghost_coeff(
    grains: np.ndarray, ghost_bytes: np.ndarray, dim: int, bytes_per_dof: float = 8.0
) -> float:
    """Least-squares fit of ``bytes = c * grain^((d-1)/d)`` from simulator
    ghost-exchange measurements (per rank)."""
    grains = np.asarray(grains, dtype=np.float64)
    ghost = np.asarray(ghost_bytes, dtype=np.float64) / bytes_per_dof
    x = grains ** ((dim - 1) / dim)
    return float((x @ ghost) / (x @ x))


def phase_profile(report, blocks=("ch", "ns", "pp", "vu", "remesh")) -> dict:
    """Per-step mean seconds of each CHNS solver block, read off an
    ``repro.obs`` :class:`~repro.obs.report.WorldReport` of a traced run.

    The timestepper nests one span per block under ``chns.step`` and counts
    steps in the ``chns.steps`` counter, so each block's mean inclusive time
    divided by steps-per-rank is its per-step cost.  Blocks the run never
    entered report 0.0.
    """
    steps = report.counter_total("chns.steps") / max(report.n_ranks, 1)
    div = max(steps, 1.0)
    return {
        b: report.phase_seconds(f"chns.step/chns.{b}") / div for b in blocks
    }


def iter_profile_from_obs(report) -> dict:
    """Measured iteration counts for :func:`paper_fig5_solvers` from obs
    counters of a traced CHNS run: mean Krylov iterations per solve for each
    linear block, read from the per-block ``krylov.iterations.<blk>`` /
    ``krylov.solves.<blk>`` counters ``CHNSTimeStepper.step`` emits (the
    pooled ``krylov.*`` counters also hold the CH inner solves), and Newton
    (outer) iterations per step for CH — the quantity its
    :class:`SolverCosts` profile scales with.  A block the run never solved
    is left out (its profile stays at paper defaults).  A direct VU solve
    (:mod:`repro.chns.vu_solver`) is a solve of 0 iterations, so the VU
    figure is the run's mean, not the Jacobi-CG count the paper's block
    would take."""
    out = {}
    for blk in ("ns", "pp", "vu"):
        solves = report.counter_total(f"krylov.solves.{blk}")
        if solves:
            out[blk] = report.counter_total(f"krylov.iterations.{blk}") / solves
    steps = report.counter_total("chns.steps")
    newton = report.counter_total("newton.iterations")
    if steps and newton:
        out["ch"] = newton / steps
    return out


@dataclass
class SolverCosts:
    """Per-timestep Krylov profile of one solver block, measured from the
    small-scale CHNS run: average iterations and MATVEC-equivalent passes
    per iteration (dot products count as collectives)."""

    iterations: float
    matvecs_per_iter: float = 1.0
    collectives_per_iter: float = 2.0
    assembly_passes: float = 1.0
    dofs_per_node: int = 1


@dataclass
class ApplicationModel:
    """Fig. 5 composition: four solver blocks + remeshing."""

    machine: MachineModel
    n_elems: float  # global element count (paper: ~700M)
    dim: int = 3
    ghost_coeff: float = 6.0
    solvers: dict = field(default_factory=dict)
    # Remeshing constants: sort+balance+transfer passes, plus a small
    # super-linear metadata term that reproduces the paper's cost upturn
    # past ~57K processes (splitter/endpoint handling growing with p).
    remesh_sort_keys_factor: float = 1.0
    remesh_passes: float = 6.0
    remesh_p_linear: float = 5.0e-5  # s per process (metadata/Allgatherv)

    def solver_time(self, name: str, p: int) -> float:
        c = self.solvers[name]
        m = self.machine
        per_pass = m.matvec_time(
            self.n_elems,
            p,
            self.dim,
            ghost_coeff=self.ghost_coeff,
            bytes_per_node_dof=8.0 * c.dofs_per_node,
            n_collectives=0.0,
        )
        t = c.iterations * (
            c.matvecs_per_iter * per_pass
            + c.collectives_per_iter * m.allreduce_time(p)
        )
        t += c.assembly_passes * per_pass
        return float(t)

    def remesh_time(self, p: int) -> float:
        m = self.machine
        keys = self.n_elems * self.remesh_sort_keys_factor
        t = m.kway_sort_time(keys, p)
        t += self.remesh_passes * m.matvec_time(
            self.n_elems, p, self.dim, ghost_coeff=self.ghost_coeff,
            n_collectives=1.0,
        )
        t += self.remesh_p_linear * p  # the upturn term
        return float(t)

    def breakdown(self, procs) -> dict:
        procs = np.asarray(procs)
        out = {"procs": procs}
        for name in self.solvers:
            out[name] = np.array([self.solver_time(name, int(p)) for p in procs])
        out["remesh"] = np.array([self.remesh_time(int(p)) for p in procs])
        return out

    def speedup(self, name: str, p_lo: int, p_hi: int) -> float:
        if name == "remesh":
            return self.remesh_time(p_lo) / self.remesh_time(p_hi)
        return self.solver_time(name, p_lo) / self.solver_time(name, p_hi)


def paper_fig5_solvers(iter_profile: dict | None = None) -> dict:
    """Default Fig. 5 solver profiles.  ``iter_profile`` overrides measured
    iteration counts (from the benchmark's small-scale CHNS run)."""
    base = {
        # CH: Newton x Krylov on a 2-dof block system: norms, line-search
        # evaluations and re-assembly every iteration make it collective-
        # heavy; worst-scaling block (paper: 4x for 8x procs).
        "ch": SolverCosts(iterations=40, matvecs_per_iter=2.2,
                          collectives_per_iter=24.0, assembly_passes=3.0,
                          dofs_per_node=2),
        # NS: per-component solves, light collectives; best-scaling (6.6x).
        "ns": SolverCosts(iterations=90, matvecs_per_iter=1.0,
                          collectives_per_iter=2.0, assembly_passes=3.0),
        # PP: variable-coefficient Poisson, most iterations (dominant cost,
        # paper Sec. III-B); 5.3x.
        "pp": SolverCosts(iterations=300, matvecs_per_iter=1.0,
                          collectives_per_iter=5.0, assembly_passes=1.0),
        # VU: mass solves per direction, few iterations each; 5.5x.
        "vu": SolverCosts(iterations=45, matvecs_per_iter=1.0,
                          collectives_per_iter=4.5, assembly_passes=0.0),
    }
    if iter_profile:
        for k, v in iter_profile.items():
            if k in base:
                base[k].iterations = v
    return base
