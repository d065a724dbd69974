"""``python -m repro.scenarios`` — run/list/status/report for scenario
batches.

Verbs::

    list                           registered families and variants
    run [NAMES...] [--all]         run scenarios as a concurrent batch
    status --out DIR               job statuses from a results store
    report --out DIR               aggregate throughput/cost report

``run`` exits non-zero unless every job in the batch succeeded, so CI and
shell pipelines can trust the exit code; ``status --assert-succeeded`` does
the same for an existing store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import registry
from .batch import make_jobs, run_batch
from .runner import JobResult
from .schema import ScenarioConfig, ScenarioError
from .store import ResultsStore

DEFAULT_OUT = os.path.join("scenario_results")


def _fmt_row(cols, widths):
    return "  ".join(str(c).ljust(w) for c, w in zip(cols, widths))


def _print_results_table(results: dict) -> None:
    headers = ("job", "family", "status", "steps", "wall s", "newton", "error")
    rows = []
    for jid in sorted(results):
        r = results[jid]
        rows.append(
            (
                jid,
                r.family,
                r.status,
                f"{r.steps_done}/{r.n_steps}",
                f"{r.wall_s:.2f}",
                r.counts.get("newton", 0),
                (r.error or "")[:48],
            )
        )
    widths = [
        max(len(str(h)), *(len(str(row[i])) for row in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    print(_fmt_row(headers, widths))
    for row in rows:
        print(_fmt_row(row, widths))


# ------------------------------------------------------------------- verbs


def cmd_list(args) -> int:
    print(f"{len(registry.families())} families, "
          f"{len(registry.variants())} variants "
          "(names accept a bare family for its 2D variant):\n")
    for name in registry.variants():
        cfg = registry.build(name, quick=args.quick)
        print(
            f"  {name:<22} solver={cfg.solver:<5} dim={cfg.domain.dim} "
            f"levels {cfg.domain.min_level}..{cfg.domain.max_level} "
            f"steps={cfg.time.n_steps} dt={cfg.time.dt:g}"
            + (f"  remesh_every={cfg.refinement.remesh_every}"
               if cfg.refinement.remesh_every else "")
        )
    return 0


def _configs_from_args(args) -> List[ScenarioConfig]:
    dims = tuple(int(d) for d in args.dims.split(",")) if args.dims else (2, 3)
    if args.all:
        configs = registry.build_all(quick=args.quick, dims=dims)
    elif args.names:
        configs = [registry.build(n, quick=args.quick) for n in args.names]
        configs = [c for c in configs if c.domain.dim in dims]
    else:
        raise ScenarioError("run: give scenario names or --all")
    if not configs:
        raise ScenarioError("run: no scenarios selected (check names/--dims)")
    for cfg in configs:
        if args.steps:
            cfg.time.n_steps = args.steps
        if args.checkpoint_every is not None:
            cfg.control.checkpoint_every = args.checkpoint_every
        if args.timeout is not None:
            cfg.control.timeout_s = args.timeout
        if args.obs:
            cfg.outputs.obs = True
        cfg.validate()
    return configs


def cmd_run(args) -> int:
    if args.backend is not None:
        from ..runtime import available_backends

        if args.backend not in available_backends():
            raise ScenarioError(
                f"unknown SPMD backend {args.backend!r}; available: "
                f"{sorted(available_backends())}"
            )
    configs = _configs_from_args(args)
    jobs = make_jobs(configs, repeats=args.repeats, base_seed=args.seed)
    store = ResultsStore(args.out)
    print(
        f"batch: {len(jobs)} jobs ({', '.join(c.name for c in configs)}) "
        f"concurrency={args.concurrency} backend={args.backend or 'default'} "
        f"-> {args.out}"
    )
    report = run_batch(
        jobs,
        store,
        concurrency=args.concurrency,
        backend=args.backend,
        resume=not args.no_resume,
    )
    _print_results_table(report.results)
    print(
        f"\n{report.n_run} run, {report.n_skipped} resumed-as-done, "
        f"{report.wall_s:.1f}s wall ({report.jobs_per_min():.1f} jobs/min), "
        f"statuses: {report.statuses}"
    )
    if report.interrupted:
        print("batch interrupted — re-run with the same --out to resume",
              file=sys.stderr)
        return 2
    if not report.all_succeeded:
        print("batch finished with non-succeeded jobs", file=sys.stderr)
        return 1
    return 0


def cmd_status(args) -> int:
    store = ResultsStore(args.out)
    results = store.load_jobs()
    if not results:
        print(f"no results store under {args.out}", file=sys.stderr)
        return 1
    _print_results_table(results)
    counts = ResultsStore.status_counts(results)
    print(f"\nstatuses: {counts}")
    if args.assert_succeeded and set(counts) != {"succeeded"}:
        print("ERROR: not all jobs succeeded", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    store = ResultsStore(args.out)
    results = store.load_jobs()
    if not results:
        print(f"no results store under {args.out}", file=sys.stderr)
        return 1
    by_family: dict = {}
    for r in results.values():
        f = by_family.setdefault(
            r.family, {"jobs": 0, "succeeded": 0, "wall_s": 0.0, "steps": 0})
        f["jobs"] += 1
        f["succeeded"] += r.status == "succeeded"
        f["wall_s"] += r.wall_s
        f["steps"] += r.steps_done
        for name, n in r.counts.items():
            f[name] = f.get(name, 0) + n
    total_wall = sum(f["wall_s"] for f in by_family.values())
    payload = {
        "store": args.out,
        "n_jobs": len(results),
        "statuses": ResultsStore.status_counts(results),
        "total_job_wall_s": round(total_wall, 3),
        "families": {
            k: {**v, "wall_s": round(v["wall_s"], 3)}
            for k, v in sorted(by_family.items())
        },
    }
    print(json.dumps(payload, indent=2))
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.scenarios", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p_list = sub.add_parser("list", help="registered scenario families")
    p_list.add_argument("--quick", action="store_true",
                        help="show the quick (CI-sized) variants")
    p_list.set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="run scenarios as a concurrent batch")
    p_run.add_argument("names", nargs="*",
                       help="variant names (rising_bubble_2d, drop_3d, ...)")
    p_run.add_argument("--all", action="store_true",
                       help="every registered variant")
    p_run.add_argument("--quick", action="store_true",
                       help="CI-sized configs (seconds per job)")
    p_run.add_argument("--dims", default=None,
                       help="comma-separated dims filter, e.g. --dims 2")
    p_run.add_argument("--out", default=DEFAULT_OUT,
                       help=f"results store directory [{DEFAULT_OUT}]")
    p_run.add_argument("--concurrency", type=int, default=1,
                       help="concurrent jobs (worker ranks)")
    p_run.add_argument("--backend", default=None,
                       help="SPMD backend for the workers "
                            "(thread|process|serial)")
    p_run.add_argument("--repeats", type=int, default=1,
                       help="seeded repeats per scenario (ensembles)")
    p_run.add_argument("--seed", type=int, default=0, help="base seed")
    p_run.add_argument("--steps", type=int, default=0,
                       help="override n_steps on every selected config")
    p_run.add_argument("--checkpoint-every", type=int, default=None,
                       help="checkpoint cadence in steps (0 disables)")
    p_run.add_argument("--timeout", type=float, default=None,
                       help="per-job cooperative wall budget in seconds")
    p_run.add_argument("--obs", action="store_true",
                       help="attach a repro.obs span summary to each job")
    p_run.add_argument("--no-resume", action="store_true",
                       help="re-run jobs that already have a final verdict")
    p_run.set_defaults(fn=cmd_run)

    p_status = sub.add_parser("status", help="statuses from a results store")
    p_status.add_argument("--out", default=DEFAULT_OUT)
    p_status.add_argument("--assert-succeeded", action="store_true",
                          help="exit 1 unless every job succeeded")
    p_status.set_defaults(fn=cmd_status)

    p_report = sub.add_parser("report", help="aggregate JSON report")
    p_report.add_argument("--out", default=DEFAULT_OUT)
    p_report.set_defaults(fn=cmd_report)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
