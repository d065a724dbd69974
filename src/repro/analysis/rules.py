"""spmdlint rule catalogue (R1–R5).

Each rule targets one defect class observed in (or adjacent to) this
repository's SPMD code; DESIGN.md §7 documents the catalogue with examples.

R1  rank-divergent collective
    A collective call (Comm method or a repo collective entry point)
    reachable only under rank-dependent control flow — the classic SPMD
    deadlock/corruption: some ranks enter the rendezvous, others don't.
    Rank taint seeds: any ``.rank`` attribute, results of rank-asymmetric
    calls (``recv``, ``scan``, ``exscan``, ``iprobe``), and names assigned
    from tainted expressions (fixpoint).  Early exits (``return``/``raise``
    under a tainted branch) poison the rest of the function; ``break``/
    ``continue`` poison the rest of the enclosing loop.

R2  unordered iteration feeding order-sensitive effects
    Iterating a dict/set (or materializing its view) where the body issues
    messages or accumulates floats: NBX delivery order is schedule-
    dependent and float reduction does not commute bitwise — the PR 3
    ``ghost_write`` bug class.  ``sorted(...)`` is the canonical fix.

R3  wall-clock / unseeded randomness inside SPMD-executed functions
    ``time.time``-family reads and unseeded RNG calls make rank behaviour
    differ between runs and backends, breaking the obs determinism
    contract (DESIGN.md §6).  ``time.sleep`` is allowed (no value).

R4  assembly without a generation check
    Calling ``plan.assemble(Ke)`` (or ``scatter_loads`` / ``eliminate``) on a
    plan that did not provably come from ``get_plan``/``AssemblyPlan`` in the
    same scope, with no ``check(mesh)`` or ``assemble_for`` in sight: a
    cached plan can be stale against ``Mesh.generation`` after an AMR remesh.

R5  in-place mutation of received message buffers
    The thread backend's transport is zero-copy: a received payload *is*
    the sender's array.  Mutating it races the sending rank (and differs
    from the process backend, which copies).  ``.copy()`` launders the
    taint; the runtime twin of this rule is the write-epoch race detector
    in :mod:`repro.analysis.runtime_check`.
"""

from __future__ import annotations

import ast
from typing import Optional

from .lint import (
    Finding,
    FunctionContext,
    Rule,
    _call_name,
    _dotted,
    is_collective_call,
)

#: ndarray methods that mutate in place.
_INPLACE_METHODS = frozenset(
    {"sort", "fill", "resize", "put", "partition", "byteswap", "setflags"}
)

#: time-module calls that read the clock (``sleep`` deliberately absent).
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.datetime.now",
        "datetime.utcnow",
        "datetime.datetime.utcnow",
        "uuid.uuid4",
    }
)


def _loop_target_names(loop: ast.For) -> set[str]:
    out: set[str] = set()

    def rec(t: ast.AST) -> None:
        if isinstance(t, ast.Name):
            out.add(t.id)
        elif isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                rec(e)
        elif isinstance(t, ast.Starred):
            rec(t.value)

    rec(loop.target)
    return out


def _references(node: ast.AST, names: set[str]) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(node)
    )


def _contains(node: ast.AST, kinds: tuple) -> bool:
    return any(isinstance(sub, kinds) for sub in ast.walk(node))


class RankDivergentCollective(Rule):
    id = "R1"
    title = "collective call under rank-dependent control flow"

    def check_function(self, ctx: FunctionContext, path: str) -> list[Finding]:
        findings: list[Finding] = []
        state = {"fn_div": None}
        self._stmts(
            getattr(ctx.node, "body", []), 0, ctx, path, findings, state, []
        )
        return findings

    # -- statement walker --------------------------------------------------

    def _stmts(self, body, depth, ctx, path, findings, state, loops) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs are linted as their own contexts
            if isinstance(stmt, ast.If):
                self._expr(stmt.test, depth, ctx, path, findings, state, loops)
                tainted = ctx._expr_rank_tainted(stmt.test)
                d = depth + (1 if tainted else 0)
                self._stmts(stmt.body, d, ctx, path, findings, state, loops)
                self._stmts(stmt.orelse, d, ctx, path, findings, state, loops)
                if tainted:
                    if _contains(stmt, (ast.Return, ast.Raise)):
                        state["fn_div"] = state["fn_div"] or stmt.lineno
                    if loops and _contains(stmt, (ast.Break, ast.Continue)):
                        loops[-1].setdefault("div", stmt.lineno)
            elif isinstance(stmt, ast.While):
                self._expr(stmt.test, depth, ctx, path, findings, state, loops)
                tainted = ctx._expr_rank_tainted(stmt.test)
                loops.append({})
                self._stmts(
                    stmt.body, depth + (1 if tainted else 0),
                    ctx, path, findings, state, loops,
                )
                loops.pop()
                self._stmts(stmt.orelse, depth, ctx, path, findings, state, loops)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._expr(stmt.iter, depth, ctx, path, findings, state, loops)
                tainted = ctx._expr_rank_tainted(stmt.iter)
                loops.append({})
                self._stmts(
                    stmt.body, depth + (1 if tainted else 0),
                    ctx, path, findings, state, loops,
                )
                loops.pop()
                self._stmts(stmt.orelse, depth, ctx, path, findings, state, loops)
            elif isinstance(stmt, ast.Try):
                for part in (stmt.body, stmt.orelse, stmt.finalbody):
                    self._stmts(part, depth, ctx, path, findings, state, loops)
                for h in stmt.handlers:
                    self._stmts(h.body, depth, ctx, path, findings, state, loops)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._expr(
                        item.context_expr, depth, ctx, path, findings, state, loops
                    )
                self._stmts(stmt.body, depth, ctx, path, findings, state, loops)
            else:
                for child in ast.iter_child_nodes(stmt):
                    self._expr(child, depth, ctx, path, findings, state, loops)

    # -- expression walker (handles conditional expressions) ---------------

    def _expr(self, node, depth, ctx, path, findings, state, loops) -> None:
        if isinstance(node, ast.IfExp):
            self._expr(node.test, depth, ctx, path, findings, state, loops)
            d = depth + (1 if ctx._expr_rank_tainted(node.test) else 0)
            self._expr(node.body, d, ctx, path, findings, state, loops)
            self._expr(node.orelse, d, ctx, path, findings, state, loops)
            return
        if isinstance(node, ast.Call) and is_collective_call(node):
            name = _call_name(node)
            if depth > 0:
                findings.append(
                    self.finding(
                        path, node,
                        f"collective `{name}` reached under rank-dependent "
                        "control flow — some ranks may skip the rendezvous",
                    )
                )
            elif state["fn_div"] is not None:
                findings.append(
                    self.finding(
                        path, node,
                        f"collective `{name}` after rank-dependent early "
                        f"exit at line {state['fn_div']} — ranks taking the "
                        "exit never reach it",
                    )
                )
            elif any("div" in fr for fr in loops):
                line = next(fr["div"] for fr in loops if "div" in fr)
                findings.append(
                    self.finding(
                        path, node,
                        f"collective `{name}` in a loop with a rank-"
                        f"dependent break/continue at line {line}",
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._expr(child, depth, ctx, path, findings, state, loops)


class UnorderedIterationOrder(Rule):
    id = "R2"
    title = "unordered container feeds order-sensitive accumulation or sends"

    def check_function(self, ctx: FunctionContext, path: str) -> list[Finding]:
        if not ctx.is_spmd:
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.node):
            if isinstance(node, ast.For) and ctx._expr_unordered(node.iter):
                findings.extend(self._check_loop(node, ctx, path))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_materialization(node, ctx, path))
        return findings

    def _check_loop(self, loop: ast.For, ctx, path) -> list[Finding]:
        targets = _loop_target_names(loop)
        for sub in ast.walk(loop):
            if sub is loop.iter or any(
                sub is t for t in ast.walk(loop.iter)
            ):
                continue
            if isinstance(sub, ast.AugAssign) and (
                _references(sub.value, targets)
                or (
                    isinstance(sub.target, ast.Subscript)
                    and _references(sub.target, targets)
                )
            ):
                return [self._report(loop, path, "accumulation", sub.lineno)]
            if isinstance(sub, ast.Call):
                name = _call_name(sub)
                f = sub.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr == "at"
                    and any(_references(a, targets) for a in sub.args)
                ):
                    return [self._report(loop, path, "ufunc.at accumulation", sub.lineno)]
                if name in ("send", "isend", "post", "sendrecv") and any(
                    _references(a, targets) for a in sub.args
                ):
                    return [self._report(loop, path, "message issue", sub.lineno)]
        return []

    def _report(self, loop, path, what, line) -> Finding:
        return self.finding(
            path, loop,
            f"iteration over unordered container feeds {what} at line "
            f"{line}; delivery/float order is schedule-dependent — iterate "
            "`sorted(...)`",
        )

    def _check_materialization(self, node: ast.Call, ctx, path) -> list[Finding]:
        name = _call_name(node)
        if name not in ("list", "tuple", "concatenate", "hstack", "vstack"):
            return []
        for arg in node.args:
            if ctx._expr_unordered(arg):
                return [
                    self.finding(
                        path, node,
                        f"`{name}(...)` materializes an unordered container "
                        "view; element order is schedule-dependent — wrap "
                        "in `sorted(...)` or index by sorted keys",
                    )
                ]
        return []


class NondeterminismInSpmd(Rule):
    id = "R3"
    title = "wall-clock or unseeded randomness in an SPMD-executed function"

    def check_function(self, ctx: FunctionContext, path: str) -> list[Finding]:
        if not ctx.is_spmd:
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if dotted in _CLOCK_CALLS:
                findings.append(
                    self.finding(
                        path, node,
                        f"`{dotted}()` inside SPMD code: wall-clock values "
                        "differ per rank and per backend, breaking the "
                        "cross-backend determinism contract",
                    )
                )
            elif dotted.startswith("random."):
                findings.append(
                    self.finding(
                        path, node,
                        f"`{dotted}()` inside SPMD code: unseeded global "
                        "RNG is schedule-dependent — use a rank-seeded "
                        "`np.random.default_rng(seed)`",
                    )
                )
            elif dotted.startswith(("np.random.", "numpy.random.")):
                tail = dotted.rsplit(".", 1)[1]
                if tail == "default_rng" and node.args:
                    continue  # explicitly seeded
                if tail in ("Generator", "SeedSequence", "PCG64"):
                    continue
                findings.append(
                    self.finding(
                        path, node,
                        f"`{dotted}()` inside SPMD code: unseeded NumPy "
                        "randomness is not reproducible across backends — "
                        "pass an explicit per-rank seed",
                    )
                )
        return findings


class StalePlanAssembly(Rule):
    id = "R4"
    title = "AssemblyPlan numeric method without a mesh-generation check"

    def check_function(self, ctx: FunctionContext, path: str) -> list[Finding]:
        fn = ctx.node
        fresh: set[str] = set()  # names provably bound to a fresh plan here
        checked: set[str] = set()  # receivers with a .check()/.assemble_for()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _call_name(node.value) in ("get_plan", "AssemblyPlan"):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            fresh.add(t.id)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("check", "assemble_for"):
                    recv = _dotted(node.func.value)
                    if recv:
                        checked.add(recv)
        findings: list[Finding] = []
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("assemble", "scatter_loads", "eliminate")
            ):
                continue
            recv = node.func.value
            if isinstance(recv, ast.Name) and (recv.id == "self" or recv.id in fresh):
                continue
            if isinstance(recv, ast.Call) and _call_name(recv) in (
                "get_plan",
                "AssemblyPlan",
            ):
                continue
            recv_name = _dotted(recv)
            if recv_name and recv_name in checked:
                continue
            findings.append(
                self.finding(
                    path, node,
                    f"`.{node.func.attr}(...)` on a plan that may be stale "
                    "against `Mesh.generation` — call `plan.check(mesh)` "
                    "first, fetch via `get_plan(mesh)`, or use "
                    "`plan.assemble_for(mesh, Ke)`",
                )
            )
        return findings


class MutatedReceiveBuffer(Rule):
    id = "R5"
    title = "in-place mutation of a received (zero-copy) message buffer"

    def check_function(self, ctx: FunctionContext, path: str) -> list[Finding]:
        if not ctx.is_spmd or not ctx.received:
            return []
        findings: list[Finding] = []
        recv = ctx.received

        def base_name(node: ast.AST) -> Optional[str]:
            while isinstance(node, ast.Subscript):
                node = node.value
            return node.id if isinstance(node, ast.Name) else None

        for node in ast.walk(ctx.node):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Subscript) and base_name(t) in recv:
                        findings.append(self._report(path, t, base_name(t)))
            elif isinstance(node, ast.AugAssign):
                name = base_name(node.target)
                if name in recv:
                    findings.append(self._report(path, node, name))
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in _INPLACE_METHODS
                    and isinstance(f.value, ast.Name)
                    and f.value.id in recv
                ):
                    findings.append(self._report(path, node, f.value.id))
                elif (
                    isinstance(f, ast.Attribute)
                    and f.attr == "at"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in recv
                ):
                    findings.append(self._report(path, node, node.args[0].id))
                elif (
                    _dotted(f) in ("np.copyto", "numpy.copyto")
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in recv
                ):
                    findings.append(self._report(path, node, node.args[0].id))
        return findings

    def _report(self, path, node, name) -> Finding:
        return self.finding(
            path, node,
            f"`{name}` came from a receive: on the zero-copy thread "
            "transport it aliases the sender's live array — `.copy()` "
            "before mutating (runtime twin: REPRO_SPMD_CHECK=1 race "
            "detector)",
        )


RULES = [
    RankDivergentCollective,
    UnorderedIterationOrder,
    NondeterminismInSpmd,
    StalePlanAssembly,
    MutatedReceiveBuffer,
]
