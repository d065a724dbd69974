"""repro.scenarios — declarative scenario registry + concurrent batch
simulation service.

Three layers (DESIGN.md §8, docs/API.md):

* **schema** — :class:`ScenarioConfig`: one validated, JSON-round-trippable
  config covering domain, physics, initial condition, refinement policy,
  time stepping, outputs, and job control;
* **registry** — canonical CHNS cases (rising bubble, coalescence,
  Rayleigh-Taylor, spinodal, jet, drop; 2D and 3D variants) built by name,
  each with a CI-sized ``quick`` variant;
* **service** — :func:`run_scenario` executes one job (checkpoint/restart
  aware, failure-isolating), :func:`run_batch` runs many concurrently over
  the :mod:`repro.runtime` backends into a JSON :class:`ResultsStore`, and
  ``python -m repro.scenarios run/list/status/report`` is the CLI.
"""

from .batch import BatchJob, BatchReport, make_jobs, run_batch  # noqa: F401
from .registry import build, build_all, families, register, variants  # noqa: F401
from .runner import (  # noqa: F401
    JobResult,
    JobTimeout,
    ScenarioInterrupt,
    SolverDivergence,
    run_scenario,
)
from .schema import (  # noqa: F401
    BC_BUILDERS,
    IC_BUILDERS,
    DomainConfig,
    InitialCondition,
    JobControl,
    OutputConfig,
    RefinementPolicy,
    ScenarioConfig,
    ScenarioError,
    TimeConfig,
)
from .store import ResultsStore  # noqa: F401
