"""Declarative scenario schema: one validated, JSON-round-trippable config
describing a complete multiphase simulation.

A :class:`ScenarioConfig` names everything a run needs — domain, physics
parameters, initial condition, refinement policy, time stepping, outputs,
and job control — as plain data.  ``to_dict``/``from_dict`` round-trip it
through JSON exactly, and ``from_dict`` validates (unknown keys are errors,
level orderings and positivity are checked up front), so a config that
loads is a config that runs.  Initial conditions and boundary conditions
are referenced *by name* against small registries in this module; the
callables themselves never enter the serialized form.

The scenario registry (:mod:`repro.scenarios.registry`) publishes one
config builder per physics family; the batch driver and CLI consume only
the schema, never the builders.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields as dc_fields
from typing import Callable, Dict, Optional

import numpy as np

from ..amr.driver import RemeshConfig
from ..chns import initial_conditions as ic
from ..chns.params import CHNSParams
from ..chns.timestepper import jet_inflow_bc, lid_driven_bc, no_slip_bc

SOLVERS = ("ch", "chns")
JOB_STATUSES = ("pending", "running", "succeeded", "failed", "timeout",
                "interrupted")
#: statuses the batch driver treats as final — anything else is re-run on
#: resume ("interrupted" included: the job never reached a verdict).
FINISHED_STATUSES = ("succeeded", "failed", "timeout")


class ScenarioError(ValueError):
    """Invalid scenario config (bad key, bad value, unknown IC/BC name)."""


# --------------------------------------------------------------------------
# Initial-condition and boundary-condition registries (name -> callable).
# ICs are functions of the DOF coordinates; the ``seed`` entry lets seeded
# ICs (spinodal) vary per job while staying bit-deterministic.
# --------------------------------------------------------------------------

IC_BUILDERS: Dict[str, Callable] = {
    "drop": ic.drop,
    "two_drops": ic.two_drops,
    "rising_bubble": ic.rising_bubble,
    "jet_column": ic.jet_column,
    "rayleigh_taylor": ic.rayleigh_taylor,
    "spinodal": ic.spinodal,
    "filament": ic.filament,
}

BC_BUILDERS: Dict[str, Callable] = {
    "no_slip": no_slip_bc,
    "lid_driven": lid_driven_bc,
    "jet_inflow": jet_inflow_bc,
}


def _from_known(cls, d: dict, what: str):
    known = {f.name for f in dc_fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ScenarioError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**d)


def _listify(obj):
    """Tuples -> lists, recursively, so ``to_dict`` output is exactly what
    ``json.loads(json.dumps(...))`` yields (one canonical wire form)."""
    if isinstance(obj, (list, tuple)):
        return [_listify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _listify(v) for k, v in obj.items()}
    return obj


# --------------------------------------------------------------------------
# Sections
# --------------------------------------------------------------------------


@dataclass
class DomainConfig:
    """Unit-cube octree domain: dimensionality + initial refinement."""

    dim: int = 2
    max_level: int = 5
    min_level: int = 2
    threshold: float = 0.95  # interface-band threshold for mesh_from_field

    def validate(self) -> None:
        if self.dim not in (2, 3):
            raise ScenarioError(f"domain.dim must be 2 or 3, got {self.dim}")
        if not (0 < self.min_level <= self.max_level):
            raise ScenarioError(
                f"domain levels must satisfy 0 < min <= max, got "
                f"{self.min_level}..{self.max_level}"
            )


@dataclass
class InitialCondition:
    """A named phase-field profile plus its keyword parameters."""

    kind: str = "drop"
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in IC_BUILDERS:
            raise ScenarioError(
                f"unknown initial condition {self.kind!r}; "
                f"registered: {sorted(IC_BUILDERS)}"
            )

    def build(self, seed: int = 0) -> Callable[[np.ndarray], np.ndarray]:
        """The phi0(x) callable.  ``seed`` reaches ICs that declare a
        ``seed`` parameter (e.g. spinodal) unless the config pins one."""
        fn = IC_BUILDERS[self.kind]
        kwargs = dict(self.params)
        if self.kind == "spinodal":
            kwargs.setdefault("seed", seed)
        return lambda x: fn(x, **kwargs)


@dataclass
class RefinementPolicy:
    """AMR policy: a serialized :class:`RemeshConfig` + remesh cadence.
    ``remesh_every == 0`` disables mid-run adaptation (the initial mesh is
    still interface-refined via the domain section)."""

    remesh_every: int = 0
    remesh: Optional[dict] = None  # RemeshConfig.to_dict() payload

    def validate(self) -> None:
        if self.remesh_every < 0:
            raise ScenarioError("refinement.remesh_every must be >= 0")
        if self.remesh_every > 0 and self.remesh is None:
            raise ScenarioError(
                "refinement.remesh is required when remesh_every > 0"
            )
        if self.remesh is not None:
            self.build()  # RemeshConfig validates level ordering

    def build(self) -> Optional[RemeshConfig]:
        return None if self.remesh is None else RemeshConfig.from_dict(self.remesh)


@dataclass
class TimeConfig:
    dt: float = 1e-3
    n_steps: int = 4
    n_blocks: int = 1  # projection blocks per step (CHNS only)

    def validate(self) -> None:
        if self.dt <= 0:
            raise ScenarioError("time.dt must be positive")
        if self.n_steps < 1:
            raise ScenarioError("time.n_steps must be >= 1")
        if self.n_blocks < 1:
            raise ScenarioError("time.n_blocks must be >= 1")


@dataclass
class OutputConfig:
    diagnostics_every: int = 1  # mass/energy/bounds cadence (0 = final only)
    obs: bool = False  # attach a repro.obs span/counter summary to the result
    vtk: bool = False  # write a VTK time series into the job workdir

    def validate(self) -> None:
        if self.diagnostics_every < 0:
            raise ScenarioError("outputs.diagnostics_every must be >= 0")


@dataclass
class JobControl:
    """Per-job execution knobs consumed by the runner and batch driver."""

    seed: int = 0  # reaches seeded ICs; recorded in the result
    timeout_s: Optional[float] = None  # cooperative per-job wall budget
    checkpoint_every: int = 0  # steps between checkpoints (0 = none)
    backend: Optional[str] = None  # informational: SPMD backend label
    nprocs: int = 1  # reserved for SPMD jobs; recorded in the result

    def validate(self) -> None:
        if self.backend is not None:
            from ..runtime import available_backends

            if self.backend not in available_backends():
                raise ScenarioError(
                    f"unknown backend {self.backend!r}; available: "
                    f"{sorted(available_backends())}"
                )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ScenarioError("control.timeout_s must be positive")
        if self.checkpoint_every < 0:
            raise ScenarioError("control.checkpoint_every must be >= 0")
        if self.nprocs < 1:
            raise ScenarioError("control.nprocs must be >= 1")


# --------------------------------------------------------------------------
# The scenario
# --------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    """Everything one simulation job needs, as validated plain data."""

    name: str
    family: str
    solver: str = "ch"  # "ch" (Cahn-Hilliard only) | "chns" (full projection)
    domain: DomainConfig = field(default_factory=DomainConfig)
    physics: dict = field(default_factory=dict)  # CHNSParams kwargs
    ic: InitialCondition = field(default_factory=InitialCondition)
    bc: Optional[str] = None  # velocity BC name (chns only; None = no_slip)
    bc_params: dict = field(default_factory=dict)
    #: Vestigial key the frozen benchmark specs spell: None / "jacobi", the
    #: one NS momentum preconditioner, is its only legal value.
    precond: Optional[str] = None
    refinement: RefinementPolicy = field(default_factory=RefinementPolicy)
    time: TimeConfig = field(default_factory=TimeConfig)
    outputs: OutputConfig = field(default_factory=OutputConfig)
    control: JobControl = field(default_factory=JobControl)

    # ----------------------------------------------------------- validate

    def validate(self) -> "ScenarioConfig":
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if self.solver not in SOLVERS:
            raise ScenarioError(
                f"solver must be one of {SOLVERS}, got {self.solver!r}"
            )
        for section in (self.domain, self.ic, self.refinement, self.time,
                        self.outputs, self.control):
            section.validate()
        if self.bc is not None and self.bc not in BC_BUILDERS:
            raise ScenarioError(
                f"unknown velocity BC {self.bc!r}; registered: "
                f"{sorted(BC_BUILDERS)}"
            )
        if self.bc is not None and self.solver != "chns":
            raise ScenarioError("velocity BCs require solver='chns'")
        if self.precond not in (None, "jacobi"):
            raise ScenarioError(
                f"unknown precond {self.precond!r}; only 'jacobi' exists"
            )
        if self.precond is not None and self.solver != "chns":
            raise ScenarioError("precond only applies to solver='chns'")
        if self.time.n_blocks != 1 and self.solver != "chns":
            raise ScenarioError("time.n_blocks != 1 requires solver='chns'")
        self.build_params()  # CHNSParams validates positivity
        rm = self.refinement.build()
        if rm is not None and rm.feature_level < self.domain.max_level:
            raise ScenarioError(
                "refinement.feature_level must be >= domain.max_level "
                "(otherwise the first remesh throws away initial resolution)"
            )
        return self

    # -------------------------------------------------------------- build

    def build_params(self) -> CHNSParams:
        known = {f.name for f in dc_fields(CHNSParams)}
        unknown = set(self.physics) - known
        if unknown:
            raise ScenarioError(f"unknown physics keys: {sorted(unknown)}")
        kwargs = dict(self.physics)
        if "gravity_dir" in kwargs:
            kwargs["gravity_dir"] = tuple(kwargs["gravity_dir"])
        return CHNSParams(**kwargs)

    def build_ic(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.ic.build(seed=self.control.seed)

    def build_bc(self) -> Optional[Callable]:
        if self.solver != "chns":
            return None
        name = self.bc or "no_slip"
        fn = BC_BUILDERS[name]
        params = dict(self.bc_params)
        return lambda mesh: fn(mesh, **params)

    # --------------------------------------------------------- round-trip

    def to_dict(self) -> dict:
        d = _listify(asdict(self))
        if np.isinf(d["physics"].get("Fr", 1.0)):
            d["physics"]["Fr"] = "inf"  # JSON has no Infinity literal
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(d)
        known = {f.name for f in dc_fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
        physics = dict(d.get("physics", {}))
        if physics.get("Fr") == "inf":
            physics["Fr"] = np.inf
        d["physics"] = physics
        for key, section in (
            ("domain", DomainConfig),
            ("ic", InitialCondition),
            ("refinement", RefinementPolicy),
            ("time", TimeConfig),
            ("outputs", OutputConfig),
            ("control", JobControl),
        ):
            if key in d and isinstance(d[key], dict):
                d[key] = _from_known(section, d[key], key)
        return cls(**d).validate()
