"""Outside-in layer tracer owned by the benchmark.

The program under test is not edited.  ``Instrumentation.install`` wraps
public callables at each layer boundary - on the module or class that
defines them and on every imported ``repro.*`` module that bound the same
object by name - and ``remove`` puts the originals back (checked by
identity).  Each wrapped call records one span ``(name, start, end, parent,
step)`` in memory; counts are read from the wrapped call's return value
(``SolveResult``, ``NewtonResult``, ``RemeshInfo``), never from counters
inside the program, so a change that moves or redefines a program counter
cannot move these numbers.

A span nested inside an open span of the same name is not recorded: the
layer's time is that of its outermost call (``forms.source_at`` calling
``forms.source`` is one ``chns.forms`` span).  Self time is a span's
duration minus the duration of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

BLOCKS = ("ch", "ns", "pp", "vu")
#: spans the benchmark opens itself; their self time is time in no layer
BENCH_SPANS = ("bench.setup", "bench.step")

NAME, START, END, PARENT, STEP, COUNTS = range(6)


class Tracer:
    """In-memory span list with an open-span stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self.step = -1  # -1 = set-up, 0.. = step index; set by the driver

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.step, None])
        self._stack.append(idx)
        self._open[name] = self._open.get(name, 0) + 1
        self.spans[idx][START] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        t1 = time.perf_counter()
        span = self.spans[idx]
        span[END] = t1
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")
        self._open[span[NAME]] -= 1

    def recording(self) -> bool:
        """Layer spans are recorded only inside a span the benchmark opened,
        so its own checks between steps leave no spans."""
        return bool(self._stack)

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def block_of(self, idx: int) -> str:
        """Nearest enclosing ``chns.<block>`` span of a span, else 'other'."""
        while idx >= 0:
            span = self.spans[idx]
            if span[NAME].startswith("chns.") and span[NAME][5:] in BLOCKS:
                return span[NAME][5:]
            idx = span[PARENT]
        return "other"


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer, self._name = tracer, name

    def __enter__(self) -> int:
        self._idx = self._tracer.begin(self._name)
        return self._idx

    def __exit__(self, *exc) -> bool:
        self._tracer.end(self._idx)
        return False


# ---------------------------------------------------------------- wrappers


def _traced(tracer: Tracer, name: str, fn: Callable,
            on_result: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording() or tracer.is_open(name):
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if on_result is not None:
            out = on_result(tracer, idx, out)
        return out

    return wrapper


def _solve_counts(tracer, idx, res):
    """``SolveResult`` and ``NewtonResult`` carry the same two fields."""
    tracer.spans[idx][COUNTS] = {
        "iterations": int(res.iterations), "converged": bool(res.converged),
    }
    return res


def _remesh_counts(tracer, idx, out):
    new_mesh, _, info = out
    tracer.spans[idx][COUNTS] = {
        "elems_changed": int(info.n_refined) + int(info.n_coarsened),
        "n_elems": int(new_mesh.n_elems),
    }
    return out


class _TimedLU:
    """Stand-in for a SuperLU object whose ``solve`` is also a span; every
    other attribute is the factorization's own."""

    def __init__(self, tracer: Tracer, lu) -> None:
        self._tracer, self._lu = tracer, lu

    def solve(self, *args, **kwargs):
        with self._tracer.span("la.lu.solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _lu_proxy(tracer, idx, lu):
    return _TimedLU(tracer, lu)


def _trace_ch_callbacks(tracer, idx, out):
    residual, jacobian, split = out
    return (
        _traced(tracer, "chns.ch.residual", residual),
        _traced(tracer, "chns.ch.jacobian", jacobian),
        split,
    )


#: (module, attribute, span name, result hook) for plain functions
FUNCTIONS = [
    ("repro.la.newton", "newton_solve", "la.newton", _solve_counts),
    ("repro.la.krylov", "cg", "la.krylov", _solve_counts),
    ("repro.la.krylov", "bicgstab", "la.krylov", _solve_counts),
    ("repro.la.krylov", "gmres", "la.krylov", _solve_counts),
    ("scipy.sparse.linalg", "splu", "la.lu", _lu_proxy),
    ("repro.la.precond", "make_preconditioner", "la.precond.build", None),
    ("repro.la.gmg", "hierarchy_for", "la.precond.build", None),
    ("repro.amr.driver", "remesh", "amr.remesh", _remesh_counts),
    ("repro.core.identifier", "identify_local_cahn", "core.identify", None),
    ("repro.octree.refine", "refine", "octree.refine", None),
    ("repro.octree.coarsen", "coarsen", "octree.coarsen", None),
    ("repro.octree.balance", "balance", "octree.balance", None),
    ("repro.mesh.intergrid", "transfer_node_centered", "mesh.transfer", None),
    ("repro.mesh.mesh", "mesh_from_field", "mesh.from_field", None),
]

#: (module, class, method, span name, result hook) for methods
METHODS = [
    ("repro.chns.timestepper", "CHNSTimeStepper", "step", "chns.step", None),
    ("repro.chns.ch_solver", "CHSolver", "solve", "chns.ch", None),
    ("repro.chns.ns_solver", "NSSolver", "solve", "chns.ns", None),
    ("repro.chns.pp_solver", "PPSolver", "solve", "chns.pp", None),
    ("repro.chns.vu_solver", "VUSolver", "solve", "chns.vu", None),
    ("repro.chns.ch_solver", "CHSolver", "operators", "chns.ch.operators",
     _trace_ch_callbacks),
    ("repro.chns.ch_solver", "CHSolver", "__init__", "chns.solver_init", None),
    ("repro.chns.ns_solver", "NSSolver", "__init__", "chns.solver_init", None),
    ("repro.chns.pp_solver", "PPSolver", "__init__", "chns.solver_init", None),
    ("repro.chns.vu_solver", "VUSolver", "__init__", "chns.solver_init", None),
    ("repro.la.precond", "JacobiPreconditioner", "__init__",
     "la.precond.build", None),
    ("repro.fem.plan", "AssemblyPlan", "__init__", "fem.plan.symbolic", None),
    ("repro.fem.plan", "AssemblyPlan", "assemble", "fem.plan.numeric", None),
    ("repro.mesh.mesh", "Mesh", "__init__", "mesh.build", None),
]

FORMS_MODULE = "repro.chns.forms"


def _program_modules():
    """Imported ``repro`` modules, plus scipy's where ``splu`` lives."""
    for modname, mod in list(sys.modules.items()):
        if mod is None:
            continue
        if (modname == "repro" or modname.startswith("repro.")
                or modname == "scipy.sparse.linalg"):
            yield mod


class Instrumentation:
    """Installs and removes the layer wrappers around a :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: (namespace object, attribute, original) in install order
        self.patched: List[tuple] = []

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("instrumentation already installed")
        targets = list(FUNCTIONS)
        forms = importlib.import_module(FORMS_MODULE)
        for attr, obj in vars(forms).items():
            if (callable(obj) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == FORMS_MODULE):
                targets.append((FORMS_MODULE, attr, "chns.forms", None))
        for modname, attr, span, hook in targets:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = _traced(self.tracer, span, original, hook)
            for mod in _program_modules():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self.patched.append((mod, key, original))
        for modname, clsname, attr, span, hook in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            setattr(cls, attr, _traced(self.tracer, span, original, hook))
            self.patched.append((cls, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def restored(patched: List[tuple]) -> bool:
    """True when every attribute in ``patched`` (a copy of
    ``Instrumentation.patched`` taken while installed) is its original
    again, by identity."""
    return all(vars(owner)[attr] is original
               for owner, attr, original in patched)


# ----------------------------------------------------------------- analysis


def durations(tracer: Tracer,
              scale: Optional[Dict[int, float]] = None) -> List[float]:
    """Per-span duration; ``scale`` maps a step index (-1 = set-up) to the
    factor that turns its wall seconds into host-speed-compensated ones."""
    scale = scale or {}
    return [(s[END] - s[START]) * scale.get(s[STEP], 1.0)
            for s in tracer.spans]


def self_times(tracer: Tracer,
               scale: Optional[Dict[int, float]] = None) -> List[float]:
    """Per-span self time: duration minus direct children's durations."""
    durs = durations(tracer, scale)
    out = list(durs)
    for s, dur in zip(tracer.spans, durs):
        if s[PARENT] >= 0:
            out[s[PARENT]] -= dur
    return out


def layer_table(tracer: Tracer,
                scale: Optional[Dict[int, float]] = None) -> Dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, split by phase
    (``setup`` = before step 0, ``first`` = step 0, ``warm`` = later)."""
    durs = durations(tracer, scale)
    selfs = self_times(tracer, scale)
    table: Dict[str, dict] = {}
    for span, dur, self_s in zip(tracer.spans, durs, selfs):
        row = table.setdefault(span[NAME], {
            "calls": 0, "time_s": 0.0, "self_s": 0.0,
            "setup_s": 0.0, "first_s": 0.0, "warm_s": 0.0,
        })
        row["calls"] += 1
        row["time_s"] += dur
        row["self_s"] += self_s
        phase = ("setup_s" if span[STEP] < 0
                 else "first_s" if span[STEP] == 0 else "warm_s")
        row[phase] += dur
    return table


def layer_metrics(tracer: Tracer, n_steps: int,
                  scale: Optional[Dict[int, float]] = None) -> Dict[str, float]:
    """The named per-layer metrics of one traced run.  Times are seconds
    per step averaged over the whole traced run (set-up and every step,
    divided by ``n_steps``); counts are totals over the run."""
    table = layer_table(tracer, scale)
    durs = durations(tracer, scale)
    n = float(max(n_steps, 1))

    def time_of(name: str) -> float:
        return table.get(name, {}).get("time_s", 0.0) / n

    def self_of(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) / n

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    m: Dict[str, float] = {}
    for blk in BLOCKS:
        m[f"chns.{blk}.time_s"] = time_of(f"chns.{blk}")
    m["chns.step.self_s"] = self_of("chns.step")
    for cb in ("residual", "jacobian"):
        m[f"chns.ch.{cb}.time_s"] = time_of(f"chns.ch.{cb}")
        m[f"chns.ch.{cb}.calls"] = calls(f"chns.ch.{cb}")

    newton = [s for s in tracer.spans if s[NAME] == "la.newton"]
    m["la.newton.self_s"] = self_of("la.newton")
    m["la.newton.iterations"] = sum(s[COUNTS]["iterations"] for s in newton)
    m["la.newton.nonconverged"] = sum(
        not s[COUNTS]["converged"] for s in newton
    )

    per_block = {b: {"time": 0.0, "its": 0, "solves": 0, "ok": 0}
                 for b in BLOCKS + ("other",)}
    wasted = 0.0
    for idx, s in enumerate(tracer.spans):
        if s[NAME] != "la.krylov":
            continue
        acc = per_block[tracer.block_of(idx)]
        dur = durs[idx]
        acc["time"] += dur
        acc["its"] += s[COUNTS]["iterations"]
        acc["solves"] += 1
        if s[COUNTS]["converged"]:
            acc["ok"] += 1
        else:
            wasted += dur
    for blk in BLOCKS:
        m[f"la.krylov.{blk}.time_s"] = per_block[blk]["time"] / n
        m[f"la.krylov.{blk}.iterations"] = per_block[blk]["its"]
    solves = sum(a["solves"] for a in per_block.values())
    ok = sum(a["ok"] for a in per_block.values())
    m["la.krylov.solves"] = solves
    m["la.krylov.nonconverged"] = solves - ok
    m["la.krylov.wasted_s"] = wasted / n
    # like every layer metric, a ratio reads 0 where nothing was attempted
    m["la.krylov.useful_ratio"] = ok / solves if solves else 0.0
    ch = per_block["ch"]
    m["la.krylov.ch.useful_ratio"] = (
        ch["ok"] / ch["solves"] if ch["solves"] else 0.0
    )

    m["la.lu.time_s"] = time_of("la.lu") + time_of("la.lu.solve")
    m["la.lu.factorizations"] = calls("la.lu")
    m["la.precond.build_s"] = time_of("la.precond.build")
    m["la.precond.builds"] = calls("la.precond.build")
    m["chns.forms.time_s"] = time_of("chns.forms")
    m["chns.forms.calls"] = calls("chns.forms")
    m["fem.plan.numeric.time_s"] = time_of("fem.plan.numeric")
    m["fem.plan.numeric.calls"] = calls("fem.plan.numeric")
    m["fem.plan.symbolic.time_s"] = time_of("fem.plan.symbolic")
    m["fem.plan.symbolic.builds"] = calls("fem.plan.symbolic")
    m["chns.solver_init.time_s"] = time_of("chns.solver_init")

    remesh = [s for s in tracer.spans if s[NAME] == "amr.remesh"]
    m["amr.remesh.time_s"] = time_of("amr.remesh")
    m["amr.remesh.cycles"] = len(remesh)
    m["amr.remesh.elems_changed"] = sum(
        s[COUNTS]["elems_changed"] for s in remesh
    )
    m["core.identify.time_s"] = time_of("core.identify")
    for op in ("refine", "coarsen", "balance"):
        m[f"octree.{op}.time_s"] = time_of(f"octree.{op}")
    m["mesh.build.time_s"] = time_of("mesh.build")
    m["mesh.transfer.time_s"] = time_of("mesh.transfer")
    m["mesh.from_field.time_s"] = time_of("mesh.from_field")

    root = sum(table.get(b, {}).get("time_s", 0.0) for b in BENCH_SPANS)
    loose = sum(table.get(b, {}).get("self_s", 0.0) for b in BENCH_SPANS)
    m["trace.unattributed_frac"] = loose / root if root > 0 else 0.0
    return m


def check_nesting(tracer: Tracer) -> List[str]:
    """Structural problems in the span list (empty when sound): every span
    closed, inside its parent, self time >= 0, and self times summing to
    the root span."""
    problems = []
    eps = 1e-6
    for idx, s in enumerate(tracer.spans):
        if s[END] < s[START]:
            problems.append(f"span {idx} {s[NAME]} never closed")
        if s[PARENT] >= 0:
            p = tracer.spans[s[PARENT]]
            if s[START] < p[START] - eps or s[END] > p[END] + eps:
                problems.append(f"span {idx} {s[NAME]} escapes its parent")
    selfs = self_times(tracer)
    for idx, v in enumerate(selfs):
        if v < -eps:
            problems.append(
                f"span {idx} {tracer.spans[idx][NAME]} self time {v:.3e} < 0"
            )
    roots = [s for s in tracer.spans if s[PARENT] < 0]
    total = sum(s[END] - s[START] for s in roots)
    if abs(sum(selfs) - total) > 1e-6 * max(total, 1.0):
        problems.append("self times do not sum to the root spans")
    return problems


def chrome_trace(tracer: Tracer, workload: str) -> dict:
    """The span list as a Chrome ``chrome://tracing`` / Perfetto JSON."""
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    events = []
    for s in tracer.spans:
        args = {"step": s[STEP]}
        if s[COUNTS]:
            args.update(s[COUNTS])
        events.append({
            "name": s[NAME], "cat": workload, "ph": "X", "pid": 0, "tid": 0,
            "ts": (s[START] - t0) * 1e6, "dur": (s[END] - s[START]) * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
