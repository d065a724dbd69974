"""Single-scenario runner: config in, :class:`JobResult` out.

Executes one :class:`~repro.scenarios.schema.ScenarioConfig` to completion
(or failure, or cooperative timeout), with optional checkpoint/restart via
:mod:`repro.amr.checkpoint`:

* ``solver="ch"`` runs the advective Cahn-Hilliard block alone (interface
  dynamics without flow — coalescence, spinodal, drop relaxation);
* ``solver="chns"`` runs the full two-block projection stepper.

Both are one :class:`~repro.chns.timestepper.CHNSTimeStepper`, built with or
without its flow blocks; it owns the mesh, the fields, the solvers and the
work counts, and this module only drives it.

Determinism contract: a run resumed from a checkpoint produces bit-identical
final state and work counts to an uninterrupted run.  The solver state the
serial numerics carry across steps, the LU factors the CH, NS, PP and VU
blocks hold (with the flow blocks' first-block rule), is dropped at every multiple of
``control.checkpoint_every`` whether or not a file is written, so where
factors exist is a function of the config alone (the scenario tests pin
this down).  A remesh cycle that keeps the mesh keeps the factors too; it
does so on the fields alone, so a resumed run takes the same cycles.
Checkpoints record a
config digest and refuse to resume a *different* scenario.

Failure semantics: any exception inside the stepping loop — divergence,
non-finite state, solver errors — is caught and reported as a ``failed``
result with the exception text; only :class:`ScenarioInterrupt` (and a real
``KeyboardInterrupt``) escape differently, leaving an ``interrupted`` record
that the batch driver re-runs on resume.  Whatever ends the loop, the record
keeps the work counts, element count and diagnostics of the state it ended in.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .. import obs
from ..amr.checkpoint import load_checkpoint_meta, save_checkpoint
from ..chns.timestepper import CHNSTimeStepper
from ..mesh.mesh import Mesh, mesh_from_field
from .schema import ScenarioConfig, ScenarioError


class ScenarioInterrupt(Exception):
    """Injectable interrupt (tests / drivers): stop after the current step,
    leaving the checkpoint as the resume point."""


class SolverDivergence(RuntimeError):
    """The discrete state left the physical regime (NaN/Inf or blow-up)."""


class JobTimeout(RuntimeError):
    """Cooperative per-job wall-clock budget exceeded between steps."""


@dataclass
class StepState:
    """Live view handed to ``on_step`` callbacks (examples print from it)."""

    step: int
    mesh: Mesh
    phi: np.ndarray
    mu: np.ndarray
    vel: Optional[np.ndarray]  # None for solver="ch"
    p: Optional[np.ndarray]  # None for solver="ch"
    stepper: CHNSTimeStepper


#: The flat count fields of records written before ``JobResult.counts``,
#: and the stepper count each one holds.
_FLAT_COUNTS = {
    "newton_iterations": "newton",
    "krylov_iterations": "krylov",
    **{name: name for name in (
        "line_search_trials", "ch_linear", "ch_factorizations",
        "ns_factorizations", "pp_factorizations", "vu_factorizations",
        "krylov_unconverged", "remesh_cycles", "remesh_unchanged")},
}


@dataclass
class JobResult:
    """One row of the results store (JSON round-trippable)."""

    job_id: str
    name: str
    family: str
    status: str  # pending|running|succeeded|failed|timeout|interrupted
    steps_done: int = 0
    n_steps: int = 0
    wall_s: float = 0.0
    #: the stepper's ``iteration_counts`` as the job ended
    counts: Dict[str, int] = field(default_factory=dict)
    n_elems_final: int = 0
    diagnostics: dict = field(default_factory=dict)
    error: Optional[str] = None
    resumed_from_step: Optional[int] = None
    seed: int = 0
    backend: Optional[str] = None
    obs_summary: Optional[dict] = None

    # The benchmark harness (``benchmarks/perf/measure.py``) reads these two
    # counts by their names from before ``counts``; nothing else should.
    @property
    def newton_iterations(self) -> int:
        return self.counts.get("newton", 0)

    @property
    def krylov_iterations(self) -> int:
        return self.counts.get("krylov", 0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "JobResult":
        """A record of either shape: the flat count fields of an older
        store fold into ``counts``."""
        d = dict(d)
        counts = dict(d.pop("counts", {}))
        for flat, name in _FLAT_COUNTS.items():
            if flat in d:
                counts[name] = d.pop(flat)
        return cls(**d, counts=counts)


def config_digest(config: ScenarioConfig) -> str:
    """Stable digest of a scenario config — checkpoints embed it so a
    restart never silently continues a different scenario."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _check_finite(step: int, *arrays: np.ndarray) -> None:
    for a in arrays:
        if a is not None and not np.all(np.isfinite(a)):
            raise SolverDivergence(f"non-finite state after step {step}")


def _phi_sane(step: int, phi: np.ndarray) -> None:
    if np.abs(phi).max() > 10.0:
        raise SolverDivergence(
            f"phase field blew up after step {step} "
            f"(|phi|max = {np.abs(phi).max():.2e})"
        )


def _obs_summary(snapshot: dict) -> dict:
    """Compact WorldReport payload for the results store."""
    report = obs.world_report([snapshot])
    d = report.to_dict()
    spans = d.get("spans", [])
    if len(spans) > 24:  # keep the store small: cheapest spans dropped
        spans = sorted(spans, key=lambda s: -s.get("inclusive_mean_s", 0.0))[:24]
        d["spans"] = spans
        d["truncated"] = True
    return d


class _Clock:
    """Wall budget: started once per run, consulted between steps."""

    def __init__(self, timeout_s: Optional[float]):
        self.t0 = time.perf_counter()
        self.timeout_s = timeout_s

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def check(self, step: int) -> None:
        if self.timeout_s is not None and self.elapsed() > self.timeout_s:
            raise JobTimeout(
                f"exceeded {self.timeout_s:.1f}s budget before step {step} "
                f"({self.elapsed():.1f}s elapsed)"
            )


def run_scenario(
    config: ScenarioConfig,
    *,
    job_id: Optional[str] = None,
    workdir: Optional[str] = None,
    on_step: Optional[Callable[[StepState], None]] = None,
    interrupt_after_step: Optional[int] = None,
) -> JobResult:
    """Run one scenario job; never raises for in-simulation failures.

    ``workdir`` (required for checkpoints / VTK output) receives
    ``checkpoint.npz`` every ``control.checkpoint_every`` steps; when a
    valid checkpoint for *this* config already exists there, the run
    resumes from it.  ``interrupt_after_step=k`` raises
    :class:`ScenarioInterrupt` once step ``k`` has completed (checkpoint
    included) — the hook the interrupt/resume tests drive.
    """
    config.validate()
    result = JobResult(
        job_id=job_id or config.name,
        name=config.name,
        family=config.family,
        status="running",
        n_steps=config.time.n_steps,
        seed=config.control.seed,
        backend=config.control.backend,
    )
    clock = _Clock(config.control.timeout_s)
    if workdir:
        os.makedirs(workdir, exist_ok=True)
    obs_on = config.outputs.obs
    try:
        if obs_on:
            obs.enable()
        _run_loop(config, result, clock, workdir, on_step,
                  interrupt_after_step)
        result.status = "succeeded"
    except ScenarioInterrupt as exc:
        result.status = "interrupted"
        result.error = str(exc) or "interrupted"
    except JobTimeout as exc:
        result.status = "timeout"
        result.error = str(exc)
    except KeyboardInterrupt:
        result.status = "interrupted"
        result.error = "KeyboardInterrupt"
        raise  # real interrupts must still unwind the batch
    except Exception as exc:
        result.status = "failed"
        result.error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
    finally:
        result.wall_s = round(clock.elapsed(), 4)
        if obs_on:
            result.obs_summary = _obs_summary(obs.snapshot())
            obs.disable()
    return result


# --------------------------------------------------------------------------
# The stepping loop: one stepper, built fresh or restored, driven to n_steps
# --------------------------------------------------------------------------


def _make_stepper(config: ScenarioConfig, mesh: Mesh) -> CHNSTimeStepper:
    return CHNSTimeStepper(
        mesh,
        config.build_params(),
        flow=config.solver == "chns",
        n_blocks=config.time.n_blocks,
        velocity_bc=config.build_bc(),
        remesh_config=config.refinement.build(),
        remesh_every=config.refinement.remesh_every,
        precond=config.precond,
    )


def _run_loop(config, result, clock, workdir, on_step, interrupt_after_step):
    ckpt_path = os.path.join(workdir, "checkpoint.npz") if workdir else None
    digest = config_digest(config)

    start_step = 0
    if ckpt_path and os.path.exists(ckpt_path):
        tree, fields, _, meta = load_checkpoint_meta(ckpt_path)
        if meta.get("config_digest") != digest:
            raise ScenarioError(
                f"checkpoint in {workdir} belongs to a different scenario "
                f"(digest {meta.get('config_digest')} != {digest})"
            )
        start_step = int(meta["step"])
        ts = _make_stepper(config, Mesh(tree, check_balance=False))
        ts.restore(fields, step_count=start_step,
                   t=start_step * config.time.dt,
                   iteration_counts=meta.get("counts", {}))
        result.resumed_from_step = start_step
    else:
        phi0 = config.build_ic()
        dom = config.domain
        ts = _make_stepper(config, mesh_from_field(
            phi0, dom.dim, max_level=dom.max_level, min_level=dom.min_level,
            threshold=dom.threshold,
        ))
        ts.initialize(phi0)

    try:
        for step in range(start_step, config.time.n_steps):
            clock.check(step)
            ts.step(config.time.dt)
            if not ts.last_newton.converged:
                raise SolverDivergence(
                    f"CH Newton failed to converge at step {step} "
                    f"(residual {ts.last_newton.residual:.2e})"
                )
            done = step + 1
            result.steps_done = done
            _check_finite(step, ts.phi, ts.mu, ts.vel, ts.p)
            _phi_sane(step, ts.phi)
            every = config.outputs.diagnostics_every
            if on_step is not None and every and done % every == 0:
                on_step(StepState(done, ts.mesh, ts.phi, ts.mu, ts.vel, ts.p,
                                  ts))
            if config.outputs.vtk and workdir:
                _write_vtk(config, ts, workdir, done)
            ck_every = config.control.checkpoint_every
            if ck_every and done % ck_every == 0:
                # A resumed run starts here without factors; so does this one.
                ts.drop_solver_state()
                if ckpt_path:
                    save_checkpoint(
                        ckpt_path, ts.mesh.tree, ts.fields(),
                        nprocs=config.control.nprocs,
                        meta={"step": done, "config_digest": digest,
                              "counts": ts.iteration_counts},
                    )
            if interrupt_after_step is not None and done >= interrupt_after_step:
                raise ScenarioInterrupt(f"injected interrupt after step {done}")
    finally:
        _record_work(result, ts)


def _record_work(result: JobResult, ts: CHNSTimeStepper) -> None:
    """Work counts, element count and diagnostics of the state the loop
    ended in — on success and on the way out of a failed, timed-out or
    interrupted job alike."""
    result.counts = dict(ts.iteration_counts)
    result.n_elems_final = ts.mesh.n_elems
    d = ts.diagnostics()
    result.diagnostics = {
        "mass": float(d.mass),
        "energy": float(d.energy),
        "phi_min": float(d.phi_min),
        "phi_max": float(d.phi_max),
    }
    if ts.vel is not None:
        result.diagnostics["vel_max"] = float(np.abs(ts.vel).max())
        result.diagnostics["div_l2"] = float(d.div_l2)


def _write_vtk(config, ts, workdir, done):
    from ..io.vtk import write_time_series

    write_time_series(
        os.path.join(workdir, "vtk"), config.name, done, ts.mesh,
        point_data={"phi": ts.phi},
        cell_data={"level": ts.mesh.tree.levels.astype(float)},
    )
