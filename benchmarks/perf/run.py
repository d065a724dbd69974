#!/usr/bin/env python3
"""The repo benchmark: six pinned CHNS workloads, end to end and by layer.

Two ways to run it, one file:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload in this interpreter and prints, as its last line, one JSON object
  ``{"correct", "attempted", "failed", "metrics"}`` - the end-to-end metrics
  with ``--trace 0``, the per-layer metrics with ``--trace 1``.  This is the
  contract ``BENCHMARK.json`` declares.
* ``run.py [--seed N] [--workloads a,b] [--out DIR]`` runs every workload
  that way, one fresh child interpreter after another (untraced first, then
  traced), and prints the summary.  ``--calibrate K`` runs K untraced sets on
  K seeds and prints each metric's spread; ``--write-reference`` rewrites
  ``reference.json`` from a seed-0 run.

BLAS/OpenMP threads are pinned to 1 before NumPy loads.  See README.md.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from compare import spread  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: everything a run writes goes under here (git-ignored) unless --out is given
OUT_ROOT = os.path.join(ROOT, ".perf_out")
#: a child is given this many times its window before it is killed
CHILD_TIMEOUT_FACTOR = 3.0
CHILD_FIXED_S = 20.0  # interpreter start, imports, set-up reps, checks


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def require_program() -> None:
    """Put the program on the path; without its source there is nothing to
    measure, and the run ends non-zero before printing any result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)


def provenance(seed: int) -> dict:
    import importlib.util

    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit,
        "seed": seed,
        "unix_time": int(time.time()),
    }


# ------------------------------------------------------------ one workload


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(name: str, args, res: dict, metrics: dict, bench: dict,
                 prov: dict) -> None:
    check = res["check"]
    print(f"== {name}  seed={args.seed} trace={args.trace} "
          f"units={res['n_units']} window={args.seconds:g}s"
          f"{' smoke' if args.smoke else ''}")
    print(f"   host: {prov['nproc']} x {prov['cpu_model']}, python "
          f"{prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"numba {'yes' if prov['numba'] else 'no'}, threads pinned to 1, "
          f"commit {prov['commit'][:12]}")
    print(f"   host speed: calibration kernel at x{res['host_slowdown']:.3f} of "
          f"its reference time; times below are compensated for it "
          f"(hostclock.py), raw wall seconds are in the detail file")
    print("   end to end (untraced units):")
    for m in bench["end_to_end"]:
        print(f"     {m['name']:<28}{_fmt(res['end_to_end'][m['name']]):>14} "
              f"{m['unit']}")
    for key, value in res.get("derived", {}).items():
        print(f"     {key:<28}{_fmt(value):>14}")
    for key in ("failed_steps", "failed_jobs", "result_dev"):
        if key in check:
            total = f" of {check['attempted']}" if key != "result_dev" else ""
            print(f"     {key:<28}{_fmt(check[key]):>14}{total}")
    plain = [u for u in res["units"] if "walls" in u and not u.get("traced")]
    warm = [w for u in plain for w in u["walls"][1:]]
    if warm:
        elems = plain[0]["n_elems"]
        print(f"     warm steps: n={len(warm)} median={statistics.median(warm):.6g} "
              f"mean={statistics.fmean(warm):.6g} max={max(warm):.6g} s; n_elems "
              f"{elems[0] if len(set(elems)) == 1 else elems}")
    if args.trace:
        # the share column is self-consistent: the traced units' own run_s
        traced_run_s = res["end_to_end"]["run_s"] * (
            1.0 + metrics["trace.overhead_frac"]["value"])
        step_s = traced_run_s / max(res.get("steps", 1), 1)
        print(f"   per layer (s per step over a whole traced unit; "
              f"100 % = its run_s/steps = {step_s:.6g} s):")
        for m in bench["per_layer"]:
            value = metrics[m["name"]]["value"]
            share = (f"{100.0 * value / step_s:7.1f} %"
                     if m["unit"] == "s" and step_s > 0 else "")
            print(f"     {m['name']:<32}{_fmt(value):>14} {m['unit']:<6}{share}")
        traced = [u for u in res["units"] if u.get("traced")]
        for row in (traced[0]["obs_crosscheck"] if traced else []):
            flag = "  <-- differs by more than 5 %" if row["flagged"] else ""
            print(f"     obs cross-check chns.{row['block']}: outside-in "
                  f"{row['trace_s']:.6g} s, repro.obs {row['obs_s']:.6g} s "
                  f"({100 * row['rel_diff']:.2f} %){flag}")
        pairs = res.get("c2_speedup_pairs")
        if pairs and len(pairs) > 1:
            spread = (max(pairs) - min(pairs)) / statistics.median(pairs)
            verdict = "unresolved" if spread > 0.10 else "resolved"
            print(f"     c2_speedup pairs {[round(p, 3) for p in pairs]}: "
                  f"spread {100 * spread:.1f} % -> {verdict}")
    for text in check["warnings"]:
        print(f"   warning: {text}")
    for text in check["problems"]:
        print(f"   FAILED: {text}")


def write_detail(out: str, name: str, args, res: dict, result: dict,
                 prov: dict) -> None:
    import trace as layertrace

    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{name}.seed{args.seed}.trace{args.trace}")
    samples = []
    for u in res["units"]:
        samples.append({k: v for k, v in u.items() if k in (
            "setup_s", "raw_setup_s", "walls", "raw_walls", "slowdowns",
            "n_dofs", "n_elems", "final", "counts", "traced", "wall",
            "raw_wall", "concurrency", "job_walls", "store_bytes",
            "n_wrapped", "wrappers_restored")})
    detail = {
        "provenance": prov, "workload": name, "seed": args.seed,
        "trace": args.trace, "smoke": args.smoke, "seconds": args.seconds,
        "result": result, "host_slowdown": res["host_slowdown"],
        "end_to_end": res["end_to_end"],
        "derived": res.get("derived", {}), "check": res["check"],
        "samples": samples,
    }
    traced = [u for u in res["units"] if u.get("traced")]
    if traced:
        first = traced[0]
        detail["layer_table"] = first["layer_table"]
        detail["obs_crosscheck"] = first["obs_crosscheck"]
        with open(stem + ".chrome.json", "w") as fh:
            json.dump(layertrace.chrome_trace(first["tracer"], name), fh)
        with open(stem + ".obs.json", "w") as fh:
            json.dump(first["obs"], fh, indent=1)
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)


def run_child(args, bench: dict) -> int:
    require_program()
    import measure
    import workloads as W

    name = args.workload
    spec = W.generate(name, args.seed, smoke=args.smoke)
    traced = bool(args.trace)
    if spec["kind"] == "batch":
        scratch = os.path.join(OUT_ROOT, f"scratch-{os.getpid()}")
        os.makedirs(scratch)
        try:
            res = measure.measure_batch(spec, args.seconds, traced, scratch)
        finally:
            os.rmdir(scratch)  # every batch removed its own store
    else:
        # only the seed-0 run of the full profile has a committed answer
        ref = (W.load_reference()[name]
               if args.seed == 0 and not (args.smoke or args.skip_reference)
               else None)
        res = measure.measure_stepped(spec, args.seconds, traced, ref)
        res["steps"] = int(spec["steps"])
    check = res["check"]
    declared = bench["per_layer"] if traced else bench["end_to_end"]
    values = res["layers"] if traced else res["end_to_end"]
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if undeclared:
        check["problems"].append(
            f"measured but not declared in BENCHMARK.json: {undeclared}")
    # a layer a workload never enters reads 0
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared
    }
    result = {
        "correct": not check["problems"],
        "attempted": int(check["attempted"]),
        "failed": int(check["failed"]),
        "metrics": metrics,
    }
    prov = provenance(args.seed)
    print_report(name, args, res, metrics, bench, prov)
    if args.out:
        write_detail(args.out, name, args, res, result, prov)
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------ every workload


def spawn(name: str, seed: int, trace: int, args, out: str) -> dict:
    """One workload in a fresh interpreter.  A child that crashes or outruns
    its allowance is recorded as all-failed, not waited for."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    if args.write_reference:
        cmd.append("--skip-reference")
    allowance = CHILD_TIMEOUT_FACTOR * (args.seconds + CHILD_FIXED_S)
    record = {"workload": name, "seed": seed, "trace": trace}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=allowance)
        sys.stdout.write(proc.stdout[:proc.stdout.rstrip().rfind("\n") + 1])
        sys.stdout.flush()
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        record.update(json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1]))
        with open(os.path.join(
                out, f"{name}.seed{seed}.trace{trace}.json")) as fh:
            record["detail"] = json.load(fh)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError,
            OSError) as exc:
        print(f"== {name} seed={seed} trace={trace}: child lost ({exc})")
        record.update({"correct": False, "attempted": 1, "failed": 1,
                       "metrics": {}, "error": str(exc)})
    return record


def print_summary(runs: list, bench: dict) -> None:
    by_workload: dict = {}
    for r in runs:
        if not r["trace"] and r["metrics"]:
            by_workload.setdefault(r["workload"], []).append(r)
    names = [m["name"] for m in bench["end_to_end"]]
    head = f"   {'workload':<12}{'runs':>5}" + "".join(f"{n:>17}" for n in names)
    print("\n== summary: end to end (median over the runs of each workload)")
    print(head + f"{'failed':>12}{'result_dev':>12}")
    for w, mine in by_workload.items():
        cells = "".join(
            f"{statistics.median(r['metrics'][n]['value'] for r in mine):>17.6g}"
            for n in names)
        failed = (f"{sum(r['failed'] for r in mine)}"
                  f"/{sum(r['attempted'] for r in mine)}")
        devs = [r["detail"]["check"]["result_dev"] for r in mine]
        devs = [d for d in devs if d is not None]
        print(f"   {w:<12}{len(mine):>5}{cells}{failed:>12}"
              f"{_fmt(max(devs) if devs else None):>12}")
    if all(len(mine) < 2 for mine in by_workload.values()):
        return
    print("\n== spread: (Q3 - Q1) / median over the runs, against the bound")
    print(head)
    for w, mine in by_workload.items():
        if len(mine) >= 2:
            print(f"   {w:<12}{len(mine):>5}" + "".join(
                f"{100 * spread([r['metrics'][n]['value'] for r in mine]):>16.2f}%"
                for n in names))
    print(f"   {'bound':<17}" + "".join(
        f"{100 * m['bound']:>16.0f}%" for m in bench["end_to_end"]))


def write_reference(runs: list) -> None:
    ref = {}
    for r in runs:
        unit = r["detail"]["samples"][0]
        if "final" in unit:
            ref[r["workload"]] = {"seed": 0, "final": unit["final"],
                                  "n_elems": unit["n_elems"],
                                  "counts": unit["counts"]}
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def run_parent(args, bench: dict) -> int:
    known = [w["name"] for w in bench["workloads"]]
    selected = args.workloads.split(",") if args.workloads else known
    unknown = [w for w in selected if w not in known]
    if unknown:
        sys.exit(f"run.py: unknown workload(s) {unknown}; known: {known}")
    out = args.out or os.path.join(
        OUT_ROOT, time.strftime("run-%Y%m%d-%H%M%S"))
    os.makedirs(out, exist_ok=True)
    if args.write_reference:
        args.seed = 0
    runs = []
    for k in range(args.calibrate or 1):
        runs += [spawn(w, args.seed + k, 0, args, out) for w in selected]
    if args.write_reference:
        lost = [r["workload"] for r in runs if not r["correct"]]
        if lost:
            sys.exit(f"run.py: not writing a reference from failed runs: {lost}")
        write_reference(runs)
        return 0
    if not args.calibrate:
        runs += [spawn(w, args.seed, 1, args, out) for w in selected]
    print_summary(runs, bench)
    for r in runs:
        r.pop("detail", None)  # already on disk beside results.json
    with open(os.path.join(out, "results.json"), "w") as fh:
        json.dump({"provenance": provenance(args.seed), "runs": runs}, fh,
                  indent=1)
    print(f"\noutputs in {out}")
    bad = [f"{r['workload']}(trace={r['trace']})" for r in runs
           if not r["correct"]]
    if bad:
        print(f"NOT CORRECT: {bad}")
    return 1 if bad else 0


def main(argv=None) -> int:
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="measure this one workload here")
    ap.add_argument("--workloads", help="comma-separated subset (default all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measuring window per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="cut-down sizes for the harness self-test")
    ap.add_argument("--out", help="directory for detail/trace files")
    ap.add_argument("--calibrate", type=int, metavar="K",
                    help="K untraced sets on K seeds; print the spreads")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--skip-reference", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload:
        return run_child(args, bench)
    return run_parent(args, bench)


if __name__ == "__main__":
    raise SystemExit(main())
