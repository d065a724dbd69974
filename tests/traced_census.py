"""The traced census: every ``src/`` function that the entry points run.

``tests/test_census.py`` is static: a public name passes when anything
refers to it, even from a path that never runs.  This script measures
instead.  It runs every entry point that CI runs (the registry sweeps, the
MMS harness, the examples, the paper-figure drivers, the repo benchmark's
smoke profile, the SPMD checker and one interrupted-then-resumed batch)
with a ``sitecustomize`` hook on ``PYTHONPATH``.  The hook installs
``sys.setprofile`` and ``threading.setprofile`` and records the code object
of every function each process enters; it dumps that record at exit and
before ``os._exit``, and a forked child also dumps it on ``SIGTERM``
(``ProcessBackend.run`` terminates ranks that are still alive once their
result has arrived).

A function is a ``def`` at module level or in a class body, named
``module:qualname`` as in ``tests/test_census.py``; a function nested in
another one counts with its enclosing function.  Every function that no
entry point enters must be in :data:`ALLOWLIST`, with a reason that starts
with one of :data:`CATEGORIES`: the static census's ``PAPER``, ``HOOK`` or
``ROADMAP '<title>'``, or ``FAILURE '<tier-1 test id>'`` for a hang, abort
or fallback path that the named test drives.  The script exits 1 on a
never-entered function without an entry, on an entry whose function did
run (stale) and on an entry point that fails.

Run:  python tests/traced_census.py    (stdlib only; about 5 minutes on a
2-core guest, 4 of them the traced ``run.py --smoke``)
"""

from __future__ import annotations

import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from tests.test_census import CATEGORIES as STATIC_CATEGORIES  # noqa: E402
from tests.test_census import HOOK, PAPER  # noqa: E402

SRC = ROOT / "src" / "repro"

FAILURE = "FAILURE '"
#: The reasons an ALLOWLIST entry may give, as prefixes.
CATEGORIES = STATIC_CATEGORIES + (FAILURE,)

_CH_PAST_LU = "ROADMAP 'The CH solve scales past LU'"
_HANG = FAILURE + "tests/runtime/test_backends.py::{}'"

#: ``module:qualname`` -> why no entry point enters it.
ALLOWLIST = {
    # The paper's parallel remesh and its helpers: ROADMAP 'The paper's
    # parallel remesh feeds Fig. 5, or leaves `src/`' decides them.
    "octree.parcoarsen:par_coarsen": PAPER,
    "octree.parcoarsen:_endpoint": PAPER,
    "octree.parbalance:par_balance": PAPER,
    "octree.parbalance:_owner_of_points": PAPER,
    "mesh.intergrid:par_transfer_node_centered": PAPER,
    "mesh.intergrid:transfer_cell_centered": PAPER,
    "octree.overlap:overlapping_ranks_bsearch": PAPER,
    "octree.overlap:overlapping_ranks": PAPER,
    "octree.overlap:local_overlap_range": PAPER,
    "octree.overlap:local_overlap_range_interval": PAPER,
    "octree.overlap:intervals_intersect": PAPER,
    "octree.overlap:sq_below": PAPER,
    "octree.overlap:_lower_bound": PAPER,
    "octree.morton:overlaps": PAPER,
    "mesh.distributed:DistributedField.erode_dilate_step": PAPER,
    "octree.tree:Octree.linearize": PAPER,
    "octree.partition:partition_endpoints": PAPER,
    # Test hooks: fixtures, the runtime checker's switch, and the per-rank
    # tracing of a traced run_spmd that the cross-backend span-tree tests
    # compare.
    "octree.partition:scatter_tree": HOOK + ": distributes a fixture tree",
    "octree.tree:Octree.root": HOOK + ": builds a fixture tree",
    "octree.morton:parent": HOOK + ": the SFC-order tests' parent octants",
    "octree.tree:Octree.merged": HOOK,
    "octree.tree:Octree.__reduce__": HOOK + ": a tree a process-backend "
                                            "rank returns arrives read-only",
    "mesh.distributed:DistributedField.to_global": HOOK,
    "analysis.runtime_check:force_checks.__init__": HOOK,
    "analysis.runtime_check:force_checks.__enter__": HOOK,
    "analysis.runtime_check:force_checks.__exit__": HOOK,
    "mpi.comm:_traced_rank": HOOK,
    "obs:_set_last_spmd": HOOK,
    "obs:last_spmd_report": HOOK,
    "obs.report:WorldReport.span_tree_signature": HOOK,
    "obs.tracer:begin_rank": HOOK,
    "obs.tracer:end_rank": HOOK,
    "obs.tracer:is_enabled": HOOK,
    # Decided by another ROADMAP item.
    "chns.analysis:breakup_detected": "ROADMAP 'Horizons'",
    "chns.analysis:droplet_statistics": "ROADMAP 'Horizons'",
    "chns.analysis:interface_measure": "ROADMAP 'Horizons'",
    "chns.analysis:phase_volume": "ROADMAP 'Horizons'",
    "la.krylov:gmres": _CH_PAST_LU,
    "la.krylov:_gmres_body": _CH_PAST_LU,
    # gmres's preconditioner protocol; cg and bicgstab apply its inv_diag.
    "la.precond:JacobiPreconditioner.matvec": _CH_PAST_LU,
    # Failure paths: hang reports, the run timeout's abort, a guard.
    "runtime.base:format_rank_states":
        _HANG.format("test_recv_cycle_report_names_both_ranks[thread]"),
    "runtime.thread:_Threads._file":
        _HANG.format("test_recv_cycle_report_names_both_ranks[thread]"),
    "runtime.thread:_Threads.hang_report":
        _HANG.format("test_recv_cycle_report_names_both_ranks[thread]"),
    "runtime.thread:_Threads.abort":
        _HANG.format("TestSelection::test_thread_timeout_dumps_stacks"),
    "runtime.process:_StateBoard.get":
        _HANG.format("test_recv_cycle_report_names_both_ranks[process]"),
    "runtime.process:_StateBoard.dump":
        _HANG.format("test_recv_cycle_report_names_both_ranks[process]"),
    "octree.balance:is_balanced":
        FAILURE + "tests/mesh/test_nodes_mesh.py::TestMesh::"
                  "test_requires_balance'",
}


# ---------------------------------------------------------------- the hook

#: ``sitecustomize.py`` of every traced process, after a first line that
#: sets ``_OUT`` (the record directory) and ``_SRC`` (``src/repro/``).  One
#: record file per process, rewritten at each dump: the set only grows, so
#: the last write holds everything the process entered.
HOOK_SOURCE = '''
import atexit, os, signal, sys, threading

_seen = set()
_add = _seen.add


def _profile(frame, event, arg):
    _add(frame.f_code)


def _dump():
    lines = set()
    for code in list(_seen):
        path = os.path.realpath(code.co_filename)
        if path.startswith(_SRC):
            lines.add(f"{path[len(_SRC):]}:{code.co_firstlineno}:{code.co_name}")
    tmp = os.path.join(_OUT, f".{os.getpid()}.tmp")
    with open(tmp, "w") as fh:
        fh.write("\\n".join(sorted(lines)))
    os.replace(tmp, os.path.join(_OUT, f"{os.getpid()}.txt"))


_real_exit = os._exit


def _exit(code):
    _dump()
    _real_exit(code)


def _on_term(signum, frame):
    _dump()
    _real_exit(128 + signum)


def _in_child():
    try:
        signal.signal(signal.SIGTERM, _on_term)
    except ValueError:
        pass


os._exit = _exit
os.register_at_fork(after_in_child=_in_child)
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def read_records(out: Path) -> set:
    """``(relative path, first line, name)`` of every code object the
    dumps in ``out`` record."""
    entered = set()
    for path in out.glob("*.txt"):
        for line in path.read_text().splitlines():
            rel, first, name = line.rsplit(":", 2)
            entered.add((rel, int(first), name))
    return entered


# ----------------------------------------------------------- the classifier

def _module(rel: Path) -> str:
    parts = rel.with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def functions(src: Path = SRC) -> dict:
    """``module:qualname`` -> ``(relative path, first line, name, lines)``
    for every function at module level or in a class body under ``src``.
    The first line is the first decorator's, as in ``co_firstlineno``."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        mod = _module(rel)
        stack = [(node, "") for node in ast.parse(path.read_text()).body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, ast.ClassDef):
                stack.extend((item, f"{prefix}{node.name}.")
                             for item in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                found[f"{mod}:{prefix}{node.name}"] = (
                    rel.as_posix(), first, node.name,
                    node.end_lineno - first + 1,
                )
    return found


def classify(funcs: dict, entered: set, allowlist: dict):
    """``(unlisted, listed, stale)``: the never-entered functions without
    an allowlist entry, those with one, and the entries whose function was
    entered or does not exist."""
    never = {key for key, (rel, first, name, _) in funcs.items()
             if (rel, first, name) not in entered}
    unlisted = sorted(never - set(allowlist))
    listed = sorted(never & set(allowlist))
    stale = sorted(set(allowlist) - never)
    return unlisted, listed, stale


# ---------------------------------------------------------- the entry points

PY = sys.executable
SCENARIOS = [PY, "-m", "repro.scenarios"]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _status_and_report(out: str) -> list:
    return [
        (f"status {out}", SCENARIOS + ["status", "--out", out,
                                       "--assert-succeeded"], {}),
        (f"report {out}", SCENARIOS + ["report", "--out", out], {}),
    ]


#: ``(label, argv, extra environment)``, run in order from one scratch
#: directory; each must exit 0.
ENTRY_POINTS = [
    # The registry sweep on the default backend, with spans and a
    # checkpoint every step.
    ("registry sweep", SCENARIOS + ["run", "--all", "--quick", "--obs",
                                    "--checkpoint-every", "1",
                                    "--out", "sweep"], {}),
    *_status_and_report("sweep"),
    ("list", SCENARIOS + ["list"], {}),
    # The scenario-smoke CI job.
    ("quick, serial", SCENARIOS + ["run", "--all", "--quick", "--backend",
                                   "serial", "--concurrency", "2",
                                   "--out", "quick"], {}),
    *_status_and_report("quick"),
    ("quick, process", SCENARIOS + ["run", "drop_2d", "coalescence_2d",
                                    "--quick", "--backend", "process",
                                    "--concurrency", "2",
                                    "--out", "process"], {}),
    *_status_and_report("process"),
    ("full 2D", SCENARIOS + ["run", "--all", "--dims", "2", "--backend",
                             "serial", "--concurrency", "2",
                             "--out", "full2d"], {}),
    *_status_and_report("full2d"),
    ("full 3D", SCENARIOS + ["run", "--all", "--dims", "3", "--backend",
                             "serial", "--concurrency", "2",
                             "--out", "full3d"], {}),
    *_status_and_report("full3d"),
    ("60 steps", SCENARIOS + ["run", "rising_bubble_2d",
                              "rayleigh_taylor_2d", "jet_2d", "--steps",
                              "60", "--checkpoint-every", "7", "--backend",
                              "serial", "--obs", "--out", "long"], {}),
    *_status_and_report("long"),
    # The verify-smoke CI job.
    ("verify", [PY, "-m", "repro.verify", "--quick"], {}),
    # The Examples CI step, and the scaling study on every backend.
    *[(example.name, [PY, str(example)], {}) for example in EXAMPLES],
    ("jet_atomization.py --vtk",
     [PY, str(ROOT / "examples" / "jet_atomization.py"), "--vtk"], {}),
    *[(f"scaling_study.py --backend {backend}",
       [PY, str(ROOT / "examples" / "scaling_study.py"), "--backend",
        backend], {})
      for backend in ("thread", "process", "serial")],
    # The spmd-check CI job's runtime checker.
    ("scaling_study.py under REPRO_SPMD_CHECK",
     [PY, str(ROOT / "examples" / "scaling_study.py")],
     {"REPRO_SPMD_CHECK": "1"}),
    # The paper-figures and perf-smoke CI jobs.
    ("paper figures", [PY, "-m", "pytest", str(ROOT / "benchmarks"),
                       "--ignore", str(ROOT / "benchmarks" / "perf"),
                       "--benchmark-disable", "-q", "-p",
                       "no:cacheprovider"], {}),
    ("perf smoke", [PY, str(ROOT / "benchmarks" / "perf" / "run.py"),
                    "--smoke"], {}),
]

#: The README's Ctrl-C path: interrupted once its first checkpoint exists,
#: then run again, which resumes from that checkpoint.  Long enough (about
#: 2 s untraced) that the interrupt lands before the last step.
RESUMED = SCENARIOS + ["run", "rising_bubble_2d", "--quick", "--steps",
                       "200", "--checkpoint-every", "1", "--out", "resumed"]


def _env(hook: Path, extra: dict) -> dict:
    paths = [str(hook), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _resumed_batch(work: Path, env: dict) -> str:
    """Interrupt :data:`RESUMED` at its first checkpoint, then resume it;
    an error string, or "" when the second run succeeds and its record
    says it resumed from a checkpoint."""
    proc = subprocess.Popen(RESUMED, cwd=work, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    store = work / "resumed"
    while proc.poll() is None and not any(store.rglob("checkpoint.npz")):
        time.sleep(0.05)
    if proc.poll() is not None:
        return "the batch finished before it could be interrupted"
    proc.send_signal(signal.SIGINT)
    proc.wait()
    done = subprocess.run(RESUMED, cwd=work, env=env, capture_output=True,
                          text=True)
    if done.returncode:
        return done.stdout + done.stderr
    status = subprocess.run(
        SCENARIOS + ["status", "--out", "resumed", "--assert-succeeded"],
        cwd=work, env=env, capture_output=True, text=True)
    if status.returncode:
        return status.stdout + status.stderr
    jobs = json.loads((store / "results.json").read_text())["jobs"]
    if not all(job.get("resumed_from_step") for job in jobs.values()):
        return f"the second run did not resume from a checkpoint: {jobs}"
    return ""


def trace_entry_points() -> tuple[set, list]:
    """Run every entry point under the hook: the records, and the labels
    of the entry points that failed with their output."""
    failed = []
    with tempfile.TemporaryDirectory(prefix="traced-census-") as tmp:
        tmp = Path(tmp)
        hook, out, work = tmp / "hook", tmp / "records", tmp / "work"
        for d in (hook, out, work):
            d.mkdir()
        (hook / "sitecustomize.py").write_text(
            f"_OUT, _SRC = {str(out)!r}, {os.path.realpath(SRC) + os.sep!r}"
            + HOOK_SOURCE)
        for label, argv, extra in ENTRY_POINTS:
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=work, env=_env(hook, extra),
                                  capture_output=True, text=True)
            print(f"  {time.perf_counter() - t0:6.1f} s  {label}", flush=True)
            if proc.returncode:
                failed.append((label, proc.stdout[-2000:] + proc.stderr[-4000:]))
        t0 = time.perf_counter()
        error = _resumed_batch(work, _env(hook, {}))
        print(f"  {time.perf_counter() - t0:6.1f} s  resumed batch", flush=True)
        if error:
            failed.append(("resumed batch", error))
        return read_records(out), failed


def main() -> int:
    t0 = time.perf_counter()
    print("tracing the entry points:")
    entered, failed = trace_entry_points()
    funcs = functions()
    unlisted, listed, stale = classify(funcs, entered, ALLOWLIST)
    print(f"\n{len(funcs) - len(unlisted) - len(listed)} of {len(funcs)} "
          f"src/ functions entered; never entered:")
    for key in listed:
        print(f"  {key} ({funcs[key][3]} lines): {ALLOWLIST[key]}")
    for key in unlisted:
        print(f"  {key} ({funcs[key][3]} lines): UNLISTED")
    for label, output in failed:
        print(f"\nentry point failed: {label}\n{output}")
    if unlisted:
        print("\nnever entered and not in ALLOWLIST; give each an entry point "
              "or a test-driven failure path, delete it, or list it with a "
              "reason:\n  " + "\n  ".join(unlisted))
    if stale:
        print("\nALLOWLIST entries whose function ran or does not exist:\n  "
              + "\n  ".join(stale))
    print(f"\ntraced census: {time.perf_counter() - t0:.0f} s wall")
    return 1 if unlisted or stale or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
