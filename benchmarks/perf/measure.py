"""Measure one workload: the unit loop, the statistics, the checks.

A *unit* is one complete fixed sequence on fresh state - set-up, the cold
step 0, then the warm steps (for ``batch2d``: one ``run_batch``).  Units
repeat until the ``--seconds`` window is used, so a faster program is
measured over more units, never over different work.  Every end-to-end
time is a median over units or over the pooled warm steps, in
host-speed-compensated seconds (``hostclock``; README, "Noise"); the raw
wall seconds are kept beside them.

Checks run between timed regions and never inside one.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

import trace as layertrace
import workloads as W
from hostclock import HostClock

#: set-up-only repetitions before the first unit; they also warm the
#: interpreter (lazy imports, first-call NumPy paths) before anything counts
SETUP_REPS = 5
#: batch units in a traced run alternate between these concurrencies
TRACE_CONCURRENCY = (1, 2)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def unit_loop(seconds: float, run_one: Callable[[int], dict],
              min_units: int = 1) -> List[dict]:
    """Run units until the window is used.  Another unit starts only while
    the elapsed time plus half the last unit's length stays inside the
    window, so a run overshoots by at most half a unit."""
    start = time.perf_counter()
    units: List[dict] = []
    while True:
        t0 = time.perf_counter()
        units.append(run_one(len(units)))
        now = time.perf_counter()
        if len(units) >= min_units and (
            now - start + 0.5 * (now - t0) >= seconds
        ):
            return units


# ------------------------------------------------------------ stepped units


def run_unit(spec: dict, clock: HostClock,
             tracer: Optional[layertrace.Tracer] = None) -> dict:
    """Set-up plus the fixed step sequence on fresh state.  ``walls`` are
    compensated seconds, ``raw_walls`` the wall seconds they came from."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    sim = W.make_sim(spec)
    gc.collect()
    if tracer is not None:
        tracer.step = -1
    with clock.region() as region, span("bench.setup"):
        sim.setup()
    unit = {
        "setup_s": region.seconds, "raw_setup_s": region.wall,
        "slowdowns": [region.slowdown],
        "walls": [], "raw_walls": [], "n_dofs": [], "n_elems": [],
        "failures": [],
    }
    first = prev = sim.diagnostics()
    steps = int(spec["steps"])
    for i in range(steps):
        if tracer is not None:
            tracer.step = i
        try:
            with clock.region() as region, span("bench.step"):
                sim.step()
        except Exception as exc:  # a failed solve is a result, not a crash
            unit["failures"] += [
                {"step": k, "why": f"raised {type(exc).__name__}: {exc}"}
                for k in range(i, steps)
            ]
            break
        unit["walls"].append(region.seconds)
        unit["raw_walls"].append(region.wall)
        unit["slowdowns"].append(region.slowdown)
        unit["n_dofs"].append(int(sim.mesh.n_dofs))
        unit["n_elems"].append(int(sim.mesh.n_elems))
        diag = sim.diagnostics()
        why = W.step_failure(spec, sim.fields(), diag, first, prev)
        if why is not None:
            unit["failures"].append({"step": i, "why": why})
        prev = diag
    unit["final"] = prev
    unit["counts"] = sim.counts()
    return unit


def run_traced_unit(spec: dict, clock: HostClock) -> dict:
    """One unit under the layer tracer with ``repro.obs`` enabled beside it;
    every wrapper is removed again before returning."""
    from repro import obs

    tracer = layertrace.Tracer()
    inst = layertrace.Instrumentation(tracer)
    obs.enable()
    try:
        inst.install()
        patched = list(inst.patched)
        try:
            unit = run_unit(spec, clock, tracer)
        finally:
            inst.remove()
        obs_report = obs.world_report(obs.snapshot())
    finally:
        obs.disable()
    # span durations are compensated with the factor of the region they
    # fall in, so the layer times add up to the end-to-end ones
    scale = {k - 1: 1.0 / slow for k, slow in enumerate(unit["slowdowns"])}
    unit["traced"] = True
    unit["tracer"] = tracer
    unit["layers"] = layertrace.layer_metrics(tracer, int(spec["steps"]), scale)
    unit["layer_table"] = layertrace.layer_table(tracer, scale)
    unit["span_problems"] = layertrace.check_nesting(tracer)
    unit["wrappers_restored"] = layertrace.restored(patched)
    unit["n_wrapped"] = len(patched)
    unit["obs"] = obs_report.to_dict()
    unit["obs_crosscheck"] = obs_crosscheck(
        layertrace.layer_table(tracer), obs_report)
    return unit


def obs_crosscheck(table: Dict[str, dict], obs_report) -> List[dict]:
    """Outside-in block times (raw wall seconds, like the program's own)
    next to the ``chns.step/chns.*`` obs spans; a pair further apart than
    5 % is flagged."""
    rows = []
    for blk in layertrace.BLOCKS:
        stat = obs_report.spans.get(f"chns.step/chns.{blk}")
        if stat is None:
            continue  # this workload does not step through CHNSTimeStepper
        ours = table.get(f"chns.{blk}", {}).get("time_s", 0.0)
        theirs = stat.inclusive_mean
        rel = abs(ours - theirs) / theirs if theirs > 0 else 0.0
        rows.append({"block": blk, "trace_s": ours, "obs_s": theirs,
                     "rel_diff": rel, "flagged": rel > 0.05})
    return rows


def _unit_run_s(unit: dict) -> float:
    return unit["setup_s"] + sum(unit["walls"])


def _median(values: List[float], what: str) -> float:
    if not values:
        raise SystemExit(f"no {what} sample was measured; nothing to report")
    return statistics.median(values)


def stepped_end_to_end(units: List[dict], setups: List[float]) -> dict:
    warm = [(w, d) for u in units
            for w, d in zip(u["walls"][1:], u["n_dofs"][1:])]
    if not warm:  # every unit failed at step 0 or 1: judge what there is
        warm = [(w, d) for u in units for w, d in zip(u["walls"], u["n_dofs"])]
    return {
        "setup_s": _median(setups, "set-up"),
        "first_step_s": _median([u["walls"][0] for u in units if u["walls"]],
                                "first-step"),
        "step_s": _median([w for w, _ in warm], "warm-step"),
        "us_per_dof_step": 1e6 * _median([w / d for w, d in warm], "warm-step"),
        "run_s": statistics.median(_unit_run_s(u) for u in units),
        "peak_rss_mb": peak_rss_mb(),
    }


def check_stepped(spec: dict, units: List[dict],
                  ref: Optional[dict]) -> dict:
    """Failure counts, and the comparison with the seed-0 reference ``ref``
    (None for other seeds: then only the invariants are judged)."""
    steps = int(spec["steps"])
    attempted = steps * len(units)
    failed = sum(len({f["step"] for f in u["failures"]}) for u in units)
    problems = [f"unit {k} step {f['step']}: {f['why']}"
                for k, u in enumerate(units) for f in u["failures"]]
    warnings: List[str] = []
    base = units[0]
    for k, u in enumerate(units[1:], 1):
        if (u["final"] != base["final"] or u["n_elems"] != base["n_elems"]
                or u["counts"] != base["counts"]):
            problems.append(f"unit {k} did not repeat unit 0 exactly")
    dev = None
    wrong_answer = False
    if ref is not None:
        dev = W.result_dev(base["final"], ref["final"])
        if dev > W.REF_RTOL:
            wrong_answer = True
            problems.append(
                f"result_dev {dev:.3e} over {W.REF_RTOL:g}: "
                f"final {base['final']} vs reference {ref['final']}"
            )
        if base["n_elems"] != ref["n_elems"]:
            msg = (f"n_elems trajectory {base['n_elems']} differs from "
                   f"the reference {ref['n_elems']}")
            if spec["checks"].get("static_mesh"):
                wrong_answer = True
                problems.append(msg)
            else:  # the remeshed jet is threshold-sensitive: warn only
                warnings.append(msg)
    for u in units:
        if not u.get("traced"):
            continue
        problems += [f"trace: {p}" for p in u["span_problems"]]
        if not u["wrappers_restored"]:
            problems.append("trace: a wrapper was left installed")
    if wrong_answer:
        failed = attempted  # a wrong answer makes every step of it wrong
    return {
        "attempted": attempted, "failed": failed, "failed_steps": failed,
        "result_dev": dev, "problems": problems, "warnings": warnings,
    }


def measure_stepped(spec: dict, seconds: float, traced: bool,
                    ref: Optional[dict] = None) -> dict:
    clock = HostClock()
    setups = []
    for _ in range(SETUP_REPS):
        sim = W.make_sim(spec)
        gc.collect()
        with clock.region() as region:
            sim.setup()
        setups.append(region.seconds)
    del sim

    def run_one(index: int) -> dict:
        if traced and index % 2 == 1:
            return run_traced_unit(spec, clock)
        return run_unit(spec, clock)

    units = unit_loop(seconds, run_one, min_units=2 if traced else 1)
    plain = [u for u in units if not u.get("traced")]
    setups += [u["setup_s"] for u in plain]
    out = {
        "end_to_end": stepped_end_to_end(plain, setups),
        "check": check_stepped(spec, units, ref),
        "units": units,
        "n_units": len(units),
        "host_slowdown": clock.slowdown(),
    }
    if traced:
        out["layers"] = stepped_layers(plain, [u for u in units if u.get("traced")])
    return out


def stepped_layers(plain: List[dict], traced: List[dict]) -> dict:
    """Per-layer metrics of a traced run: times are medians over the traced
    units, counts are those of the first traced unit (units repeat exactly;
    ``check_stepped`` fails the run if they do not)."""
    first = traced[0]["layers"]
    layers = {}
    for name, value in first.items():
        if name.endswith(("_s", "_frac")):
            layers[name] = statistics.median(u["layers"][name] for u in traced)
        else:
            layers[name] = value
    layers["trace.overhead_frac"] = (
        statistics.median(_unit_run_s(u) for u in traced)
        / statistics.median(_unit_run_s(u) for u in plain) - 1.0
    )
    return layers


# -------------------------------------------------------------- batch units


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(root) for f in files
    )


def run_batch_unit(spec: dict, index: int, scratch: str, concurrency: int,
                   clock: HostClock) -> dict:
    """One ``run_batch`` over freshly made jobs and a fresh store."""
    from repro.scenarios import ResultsStore, run_batch

    root = os.path.join(scratch, f"batch-{os.getpid()}-{index}")
    gc.collect()
    try:
        with clock.region() as setup:
            jobs = W.batch_jobs(spec)
            store = ResultsStore(root)
            store.prepare()
        with clock.region() as batch:
            report = run_batch(jobs, store, concurrency=concurrency,
                               backend=spec["backend"], resume=False)
        results = [report.results.get(j.job_id) for j in jobs]
        return {
            "setup_s": setup.seconds, "raw_setup_s": setup.wall,
            "wall": batch.seconds, "raw_wall": batch.wall,
            "slowdowns": [setup.slowdown, batch.slowdown],
            "concurrency": concurrency, "n_jobs": len(jobs),
            # the program's own per-job walls, on the batch's time scale
            "job_walls": [r.wall_s / batch.slowdown if r else 0.0
                          for r in results],
            "failed_jobs": [
                {"job": j.job_id,
                 "why": (r.error or r.status) if r else "no record"}
                for j, r in zip(jobs, results)
                if r is None or r.status != "succeeded"
            ],
            "counts": {
                j.job_id: [r.newton_iterations, r.krylov_iterations,
                           r.n_elems_final]
                for j, r in zip(jobs, results) if r
            },
            "store_bytes": _dir_bytes(root),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _noop_rank(comm) -> int:
    return comm.rank


def spawn_seconds(backend: str, clock: HostClock, reps: int = 5) -> float:
    """Median time of a one-rank ``run_spmd`` that does nothing."""
    from repro.mpi.comm import run_spmd

    samples = []
    for _ in range(reps):
        with clock.region() as region:
            run_spmd(1, _noop_rank, backend=backend)
        samples.append(region.seconds)
    return statistics.median(samples)


def measure_batch(spec: dict, seconds: float, traced: bool,
                  scratch: str) -> dict:
    from repro.scenarios import ResultsStore

    clock = HostClock()
    setups = []
    for k in range(SETUP_REPS):
        root = os.path.join(scratch, f"setup-{os.getpid()}-{k}")
        try:
            with clock.region() as region:
                W.batch_jobs(spec)
                ResultsStore(root).prepare()
            setups.append(region.seconds)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def run_one(index: int) -> dict:
        conc = (TRACE_CONCURRENCY[index % 2] if traced
                else int(spec["concurrency"]))
        return run_batch_unit(spec, index, scratch, conc, clock)

    units = unit_loop(seconds, run_one, min_units=2 if traced else 1)
    base = [u for u in units if u["concurrency"] == int(spec["concurrency"])]
    dof_steps = W.batch_dof_steps(W.batch_jobs(spec))
    setups += [u["setup_s"] for u in base]
    attempted = sum(u["n_jobs"] for u in units)
    problems = [f"unit {k} job {f['job']}: {f['why']}"
                for k, u in enumerate(units) for f in u["failed_jobs"]]
    failed = sum(len(u["failed_jobs"]) for u in units)
    med_wall = statistics.median(u["wall"] for u in base)
    n_jobs = base[0]["n_jobs"]
    out = {
        "end_to_end": {
            "setup_s": statistics.median(setups),
            # time to the first finished job: the batch wall less the walls
            # the later jobs recorded (spawn + first job + store traffic)
            "first_step_s": statistics.median(
                u["wall"] - sum(u["job_walls"][1:]) for u in base),
            "step_s": statistics.median(u["wall"] / u["n_jobs"] for u in base),
            "us_per_dof_step": 1e6 * med_wall / dof_steps,
            "run_s": statistics.median(u["setup_s"] + u["wall"] for u in base),
            "peak_rss_mb": peak_rss_mb(),
        },
        "derived": {"jobs_per_min": 60.0 * n_jobs / med_wall},
        "check": {
            "attempted": attempted, "failed": failed, "failed_jobs": failed,
            "result_dev": None, "problems": problems, "warnings": [],
        },
        "units": units,
        "n_units": len(units),
        "host_slowdown": clock.slowdown(),
    }
    if traced:
        other = [u for u in units if u["concurrency"] == TRACE_CONCURRENCY[1]]
        out["c2_speedup_pairs"] = [a["wall"] / b["wall"]
                                   for a, b in zip(base, other)]
        out["layers"] = {
            "scenarios.batch.overhead_s": statistics.median(
                u["wall"] - sum(u["job_walls"]) for u in base),
            "scenarios.batch.c2_speedup": med_wall / statistics.median(
                u["wall"] for u in other),
            "scenarios.store.bytes": base[0]["store_bytes"],
            "runtime.spawn_s": spawn_seconds(spec["backend"], clock),
        }
    return out
