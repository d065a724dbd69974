"""Concurrent batch driver: many independent scenario jobs over the
:mod:`repro.runtime` execution backends.

This is the "heavy traffic" shape of the ROADMAP north star — not one big
SPMD solve but *many concurrent independent simulations*.  The driver reuses
the runtime substrate directly: ``run_spmd(concurrency, worker)`` gives one
worker rank per concurrency slot (forked OS processes on the ``process``
backend for true multi-core throughput; threads or the deterministic serial
scheduler elsewhere), and jobs are dealt to ranks round-robin in a fixed
order, so a batch is reproducible on the serial backend.

Failure isolation is layered:

* *job level* — :func:`~repro.scenarios.runner.run_scenario` converts any
  in-simulation exception (divergence, non-finite state) into a ``failed``
  record; the worker keeps going with its next job;
* *rank level* — a worker rank dying (OOM, segfault under the process
  backend) loses only its unfinished jobs: every completed job has already
  written its own record file, and the next ``resume`` run re-runs exactly
  the jobs without a final verdict;
* *batch level* — ``KeyboardInterrupt``/rank errors still consolidate
  whatever finished into ``results.json`` before reporting.

Per-job wall budgets are cooperative (checked between steps by the runner),
which keeps them deterministic and backend-independent; a solver stuck
*inside* one step is bounded only by the SPMD run timeout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..mpi.comm import SpmdError, run_spmd
from .runner import JobResult, run_scenario
from .schema import ScenarioConfig
from .store import ResultsStore

#: Generous SPMD watchdog of a batch: its workers never block on communication,
#: so this only bounds a wedged worker process, not normal long batches.
DEFAULT_BATCH_TIMEOUT = 3600.0


@dataclass
class BatchJob:
    """One unit of batch work: a unique id + a validated config."""

    job_id: str
    config: ScenarioConfig


@dataclass
class BatchReport:
    """What a batch run did (also summarized into ``results.json`` meta)."""

    n_jobs: int
    n_run: int
    n_skipped: int
    wall_s: float
    statuses: dict = field(default_factory=dict)
    interrupted: bool = False
    results: dict = field(default_factory=dict)  # job_id -> JobResult

    @property
    def all_succeeded(self) -> bool:
        return not self.interrupted and set(self.statuses) <= {"succeeded"}

    def jobs_per_min(self) -> float:
        return 60.0 * self.n_run / self.wall_s if self.wall_s > 0 else 0.0


def make_jobs(
    configs: Sequence[ScenarioConfig],
    *,
    repeats: int = 1,
    base_seed: int = 0,
) -> List[BatchJob]:
    """Expand configs into uniquely-identified jobs.  ``repeats > 1`` clones
    each config with a distinct per-job seed (``base_seed + k``) — the
    ensemble pattern (many seeds of one scenario)."""
    jobs: List[BatchJob] = []
    for cfg in configs:
        for k in range(repeats):
            if repeats == 1:
                job_id, seed = cfg.name, cfg.control.seed or base_seed
            else:
                job_id, seed = f"{cfg.name}.r{k}", base_seed + k
            clone = ScenarioConfig.from_dict(cfg.to_dict())
            clone.control.seed = seed
            jobs.append(BatchJob(job_id=job_id, config=clone))
    ids = [j.job_id for j in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate job ids in batch: {sorted(ids)}")
    return jobs


def _run_assigned(jobs: List[BatchJob], store: ResultsStore,
                  backend_label: Optional[str]) -> List[dict]:
    """Run a worker rank's share of the batch, recording each job as it
    finishes.  Job-level failures never escape; a KeyboardInterrupt records
    the in-flight job as interrupted (via the runner) and unwinds."""
    out: List[dict] = []
    for job in jobs:
        try:
            result = run_scenario(
                job.config, job_id=job.job_id, workdir=store.workdir(job.job_id)
            )
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # store/VTK I/O errors etc.
            result = JobResult(
                job_id=job.job_id, name=job.config.name,
                family=job.config.family, status="failed",
                n_steps=job.config.time.n_steps, error=repr(exc),
            )
        if result.backend is None:
            result.backend = backend_label
        store.write_job(result)
        out.append(result.to_dict())
    return out


def _batch_worker(
    comm, todo: Sequence[BatchJob], store: ResultsStore,
    backend_label: Optional[str],
) -> List[dict]:
    """One batch worker rank: run this rank's round-robin share of the jobs.

    Module-level (not a closure) so the process backend can pickle it.
    Deliberately communication-free (``tests/scenarios/test_batch.py`` pins
    every ``CommStats`` counter at zero), so worker ranks never deadlock on
    each other and a dead rank only loses its own unfinished jobs.
    """
    mine = list(todo)[comm.rank :: comm.size]
    return _run_assigned(mine, store, backend_label)


def run_batch(
    jobs: Sequence[BatchJob],
    store: ResultsStore,
    *,
    concurrency: int = 1,
    backend: Optional[str] = None,
    resume: bool = True,
) -> BatchReport:
    """Run ``jobs`` with bounded concurrency; returns the consolidated view.

    ``resume=True`` (default) skips every job that already has a final
    verdict (succeeded/failed/timeout) in ``store`` — re-running a killed
    batch picks up only the unfinished jobs.  ``concurrency`` worker ranks
    execute on ``backend`` (default: thread).
    """
    t0 = time.perf_counter()
    store.prepare()
    done = store.finished_ids() if resume else set()
    todo = [j for j in jobs if j.job_id not in done]
    interrupted = False
    if todo:
        nranks = max(1, min(int(concurrency), len(todo)))
        try:
            run_spmd(
                nranks, _batch_worker, todo, store, backend,
                backend=backend, timeout=DEFAULT_BATCH_TIMEOUT,
            )
        except KeyboardInterrupt:
            interrupted = True
        except SpmdError:
            # A rank died mid-batch.  Finished jobs are already on disk;
            # everything else stays unfinished for the next resume.
            interrupted = True
    wall = time.perf_counter() - t0
    results = store.load_jobs()
    known = {j.job_id for j in jobs}
    statuses = ResultsStore.status_counts(
        {jid: r for jid, r in results.items() if jid in known}
    )
    report = BatchReport(
        n_jobs=len(jobs),
        n_run=len(todo),
        n_skipped=len(jobs) - len(todo),
        wall_s=round(wall, 4),
        statuses=statuses,
        interrupted=interrupted,
        results={jid: r for jid, r in results.items() if jid in known},
    )
    store.consolidate(
        meta={
            "last_batch": {
                "concurrency": int(concurrency),
                "backend": backend,
                "n_run": report.n_run,
                "n_skipped": report.n_skipped,
                "wall_s": report.wall_s,
                "jobs_per_min": round(report.jobs_per_min(), 3),
                "interrupted": interrupted,
            }
        }
    )
    return report
