"""The six pinned workloads: frozen specs, seeded inputs, drivers, checks.

A spec file ``workloads/<name>.json`` holds a ``ScenarioConfig`` dict frozen
from the registry (so a registry edit cannot move the baseline) plus the
benchmark's own knobs: how many steps, which inputs ``--seed`` jitters and
by how much, and the cut-down ``smoke`` profile.  ``generate`` turns
``(name, seed)`` into the concrete inputs; the program sees only those.

Drivers use public API only.  A driver separates what is timed
(``setup``, ``step``) from what the benchmark needs to judge the result
(``diagnostics``), so checks never count toward a measured time.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional

import numpy as np

from repro.chns import forms
from repro.chns.ch_solver import CHSolver
from repro.chns.free_energy import ginzburg_landau_energy, total_mass
from repro.chns.ns_solver import NSSolver
from repro.chns.pp_solver import PPSolver
from repro.chns.timestepper import CHNSTimeStepper
from repro.chns.vu_solver import VUSolver
from repro.mesh import mesh as mesh_module
from repro.scenarios import ScenarioConfig

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("bubble2d", "spinodal2d", "cavity2d", "bubble3d", "jet2d_amr",
         "batch2d")


def load_spec(name: str) -> dict:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; one of {NAMES}")
    with open(os.path.join(HERE, "workloads", f"{name}.json")) as fh:
        return json.load(fh)


def _get(d: dict, path: str):
    for key in path.split("."):
        d = d[key]
    return d


def _set(d: dict, path: str, value) -> None:
    keys = path.split(".")
    for key in keys[:-1]:
        d = d[key]
    d[keys[-1]] = value


def generate(name: str, seed: int, *, smoke: bool = False) -> dict:
    """Concrete inputs of one run: the spec with the smoke overrides and the
    seeded jitter applied.  Same ``(name, seed, smoke)``, same inputs."""
    spec = load_spec(name)
    if smoke:
        for path, value in spec.get("smoke", {}).items():
            _set(spec, path, value)
    rng = random.Random(f"{name}:{seed}")
    for path, amp in spec.get("jitter", {}).items():
        base = _get(spec, path)
        if isinstance(base, list):
            _set(spec, path, [v + rng.uniform(-amp, amp) for v in base])
        else:
            _set(spec, path, base + rng.uniform(-amp, amp))
    for path in spec.get("seed_fields", []):
        _set(spec, path, int(seed))
    spec["seed"] = int(seed)
    return spec


# ------------------------------------------------------------------ drivers


def _initial_mesh(cfg: ScenarioConfig, field):
    dom = cfg.domain
    # looked up on the module at call time so the tracer's wrapper is seen
    return mesh_module.mesh_from_field(
        field, dom.dim, max_level=dom.max_level, min_level=dom.min_level,
        threshold=dom.threshold,
    )


class ChnsSim:
    """Coupled CH+NS+PP+VU stepping through ``CHNSTimeStepper``."""

    def __init__(self, spec: dict):
        self.cfg = ScenarioConfig.from_dict(spec["scenario"])

    def setup(self) -> None:
        cfg = self.cfg
        phi0 = cfg.build_ic()
        self.stepper = CHNSTimeStepper(
            _initial_mesh(cfg, phi0),
            cfg.build_params(),
            n_blocks=cfg.time.n_blocks,
            velocity_bc=cfg.build_bc(),
            remesh_config=cfg.refinement.build(),
            remesh_every=cfg.refinement.remesh_every,
            precond=cfg.precond,
        )
        self.stepper.initialize(phi0)

    def step(self) -> None:
        self.stepper.step(self.cfg.time.dt)

    @property
    def mesh(self):
        return self.stepper.mesh

    def fields(self) -> tuple:
        s = self.stepper
        return (s.phi, s.mu, s.vel, s.p)

    def counts(self) -> dict:
        return dict(self.stepper.iteration_counts)

    def diagnostics(self) -> dict:
        s = self.stepper
        d = s.diagnostics()
        return {
            "mass": float(d.mass), "energy": float(d.energy),
            "phi_min": float(d.phi_min), "phi_max": float(d.phi_max),
            "vel_max": float(np.abs(s.vel).max()), "div_l2": float(d.div_l2),
        }


class ChSim:
    """Cahn-Hilliard alone, ``CHSolver.solve`` per step (no flow)."""

    def __init__(self, spec: dict):
        self.cfg = ScenarioConfig.from_dict(spec["scenario"])

    def setup(self) -> None:
        cfg = self.cfg
        phi0 = cfg.build_ic()
        self.mesh = _initial_mesh(cfg, phi0)
        self.params = cfg.build_params()
        self.solver = CHSolver(self.mesh, self.params)
        self.phi = self.mesh.interpolate(phi0)
        self.mu = self.solver.initial_mu(self.phi)
        self.newton_iterations = 0

    def step(self) -> None:
        res = self.solver.solve(self.phi, self.mu, None, self.cfg.time.dt)
        self.newton_iterations += res.newton.iterations
        if not res.newton.converged:
            raise RuntimeError(
                f"CH Newton did not converge (residual {res.newton.residual:.2e})"
            )
        self.phi, self.mu = res.phi, res.mu

    def fields(self) -> tuple:
        return (self.phi, self.mu)

    def counts(self) -> dict:
        return {"newton": self.newton_iterations}

    def diagnostics(self) -> dict:
        return {
            "mass": float(total_mass(self.mesh, self.phi)),
            "energy": float(
                ginzburg_landau_energy(self.mesh, self.phi, self.params.Cn)
            ),
            "phi_min": float(self.phi.min()),
            "phi_max": float(self.phi.max()),
        }


def _wall_distance(x: np.ndarray, band: float) -> np.ndarray:
    """Distance to the nearest wall in units of ``band``: ``mesh_from_field``
    refines where this is below its threshold, grading the mesh to the
    walls."""
    return np.minimum(x, 1.0 - x).min(axis=-1) / band


class CavitySim:
    """Single-phase lid-driven cavity: NS -> PP -> VU driven directly with
    ``phi = 1`` everywhere, so the CH Newton path never runs."""

    def __init__(self, spec: dict):
        self.cfg = ScenarioConfig.from_dict(spec["scenario"])
        self.band = float(spec["wall_band"])

    def setup(self) -> None:
        cfg = self.cfg
        self.mesh = mesh = _initial_mesh(
            cfg, lambda x: _wall_distance(x, self.band)
        )
        params = cfg.build_params()
        self.ns = NSSolver(mesh, params)
        self.pp = PPSolver(mesh, params)
        self.vu = VUSolver(mesh, params)
        self.masks, self.values = cfg.build_bc()(mesh)
        n, dim = mesh.n_dofs, mesh.dim
        self.phi = np.ones(n)
        self.mu = np.zeros(n)
        self.p = np.zeros(n)
        self.vel = np.zeros((n, dim))
        for i in range(dim):
            self.vel[self.masks[i], i] = self.values[i][self.masks[i]]
        self.vel_old = self.vel.copy()
        self.krylov = {"iterations": 0, "unconverged_solves": 0}

    def step(self) -> None:
        dt = self.cfg.time.dt
        bc = dict(dirichlet_masks=self.masks, dirichlet_values=self.values)
        ns = self.ns.solve(self.phi, self.mu, self.vel, self.vel_old, self.p,
                           dt, **bc)
        pp = self.pp.solve(self.phi, ns.vel_star, dt, p0=self.p)
        vu = self.vu.solve(self.phi, ns.vel_star, pp.p, dt, **bc)
        self.p = pp.p
        self.vel_old, self.vel = self.vel, vu.vel
        for solve in (*ns.solves, pp.solve, *vu.solves):
            self.krylov["iterations"] += solve.iterations
            self.krylov["unconverged_solves"] += not solve.converged

    def fields(self) -> tuple:
        return (self.vel, self.p)

    def counts(self) -> dict:
        return dict(self.krylov)

    def diagnostics(self) -> dict:
        return {
            "vel_max": float(np.abs(self.vel).max()),
            "div_l2": float(forms.divergence_l2(self.mesh, self.vel)),
            "p_min": float(self.p.min()),
            "p_max": float(self.p.max()),
        }


DRIVERS = {"chns": ChnsSim, "ch": ChSim, "cavity": CavitySim}


def make_sim(spec: dict):
    return DRIVERS[spec["kind"]](spec)


# ------------------------------------------------------------------- checks


def step_failure(spec: dict, fields: tuple, diag: dict,
                 first: dict, prev: dict) -> Optional[str]:
    """Why this step counts as failed, or None.  ``first``/``prev`` are the
    diagnostics before step 0 and before this step."""
    for arr in fields:
        if not np.all(np.isfinite(arr)):
            return "non-finite field"
    checks = spec["checks"]
    if "phi_max" in diag:  # the cavity carries no phase field to bound
        phi_abs = max(abs(diag["phi_min"]), abs(diag["phi_max"]))
        if phi_abs > checks["phi_abs_max"]:
            return f"|phi|max {phi_abs:.3f}"
    tol = checks.get("mass_drift")
    if tol is not None and abs(diag["mass"] - first["mass"]) > tol:
        return f"mass drift {abs(diag['mass'] - first['mass']):.2e}"
    if checks.get("energy_decay") and diag["energy"] > prev["energy"] * (
        1.0 + 1e-12
    ):
        return f"energy rose {prev['energy']:.6e} -> {diag['energy']:.6e}"
    return None


REF_RTOL, REF_ATOL = 1e-5, 1e-9


def result_dev(diag: Dict[str, float], ref: Dict[str, float]) -> float:
    """Largest deviation of the final diagnostics from the reference, scaled
    so that ``dev <= REF_RTOL`` is ``|x - r| <= REF_RTOL |r| + REF_ATOL``."""
    return max(
        abs(diag[k] - ref[k]) / (abs(ref[k]) + REF_ATOL / REF_RTOL)
        for k in ref
    )


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# -------------------------------------------------------------------- batch


def batch_jobs(spec: dict) -> List:
    """The batch's jobs: every frozen quick config once.  ``--seed`` shuffles
    the submission order behind the first job; it does not reach the jobs'
    own numerics, whose Krylov attempts end anywhere between iteration 50
    and 4000 on the slightest change of input (README, observations)."""
    from repro.scenarios import make_jobs

    dicts = spec["scenarios"]
    if "use_scenarios" in spec:  # the smoke profile keeps the light ones
        dicts = [dicts[i] for i in spec["use_scenarios"]]
    rest = dicts[1:]
    random.Random(f"batch-order:{spec['seed']}").shuffle(rest)
    return make_jobs(
        [ScenarioConfig.from_dict(d) for d in [dicts[0], *rest]])


def batch_dof_steps(jobs: List) -> int:
    """Sum over jobs of (DOFs of the job's initial mesh x steps): the
    denominator of ``us_per_dof_step`` for the batch."""
    return sum(
        _initial_mesh(job.config, job.config.build_ic()).n_dofs
        * job.config.time.n_steps
        for job in jobs
    )
