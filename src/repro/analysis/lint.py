"""spmdlint — AST-based SPMD correctness linter for this repository.

MPI correctness tools (MUST, ISP) exist because SPMD defects — a collective
reached on some ranks only, a float reduction whose order depends on hash
iteration, wall-clock entering a supposedly deterministic rank function —
evade unit tests: every rank passes alone, the ensemble diverges.  PR 3's
cross-backend determinism sweep flushed out exactly one such bug (unsorted
peer iteration in ``ghost_write``); ``spmdlint`` turns that bug class, and
three adjacent ones, into build-time findings.

The linter is *repo-specific by design*: its rules know this codebase's
communicator API (:class:`repro.mpi.comm.Comm`), its NBX entry points and
its zero-copy thread transport.  See :mod:`repro.analysis.rules` for the
rule catalogue (R1, R2, R3, R5) and DESIGN.md §7 for the taint model.

Machinery provided here:

* :class:`Finding` — one diagnostic (rule id, location, message).
* :func:`lint_source` / :func:`lint_file` / :func:`lint_paths` — entry
  points; ``lint_paths`` is what ``python -m repro.analysis`` calls.
* Suppressions: a line carrying ``# spmdlint: ignore[R2] -- reason`` is
  exempt from the named rules.  The justification after ``--`` is
  **mandatory**: a bare ``ignore[..]`` is itself reported (rule R0), so
  every suppression in the tree documents why the code is actually safe.
  Naming a rule id that is not in the catalogue is reported the same way,
  so a suppression cannot outlive its rule.
* :class:`FunctionContext` — per-function fact base shared by the rules:
  which functions are SPMD-executed, which names are rank-tainted, which
  names hold unordered containers, which hold received (possibly aliased)
  buffers.  Taint is a flow-insensitive fixpoint over simple assignments —
  deliberately coarse, tuned so that the repository's idioms stay quiet and
  the defect patterns do not.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable, Optional

#: Comm methods that are collective (every rank of the communicator must
#: call them, in the same order).  ``ibarrier`` is collective too — NBX
#: enters it on every rank.
COLLECTIVE_METHODS = frozenset(
    {
        "barrier",
        "ibarrier",
        "bcast",
        "gather",
        "allgather",
        "scatter",
        "reduce",
        "allreduce",
        "scan",
        "exscan",
        "alltoall",
        "alltoallv",
        "split",
        "split_cached",
    }
)

#: Free functions in this repo that are collective over their ``comm``
#: argument (they call collectives / NBX internally on every rank).
COLLECTIVE_FUNCTIONS = frozenset(
    {
        "nbx_exchange",
        "dense_exchange",
        "allreduce_sum",
        "allreduce_max",
        "allreduce_min",
        "allgatherv",
        "gatherv",
        "scatterv",
        "exscan_sum",
        "alltoallv_counts",
        "kway_sort",
        "sample_sort",
        "kway_stage_comms",
        "partition_balanced",
        "gather_world",
        "ghost_read",
        "ghost_write",
        "repartition",
        "gather_tree",
        "distributed_sort_tree",
        "partition_endpoints",
        "par_balance",
        "par_coarsen",
    }
)

#: Calls whose results are received message buffers — on the zero-copy
#: thread transport these may alias another rank's live array (rule R5) and
#: are per-rank data (taint seeds for R1 where noted).
RECEIVE_CALLS = frozenset(
    {
        "recv",
        "recv_with_status",
        "bcast",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "alltoallv",
        "nbx_exchange",
        "dense_exchange",
    }
)

#: Receive-ish calls whose result is genuinely rank-dependent (R1 taint
#: seeds).  Replicated results (bcast, allreduce, allgather) are excluded:
#: branching on them is collective-consistent.
RANK_DEPENDENT_CALLS = frozenset({"recv", "recv_with_status", "exscan", "scan", "iprobe"})

#: Collectives whose result is *replicated* — identical on every rank of the
#: communicator even when the per-rank contributions differ.  They launder
#: rank-taint: ``comm.allreduce(tainted)`` is uniform, so branching on it is
#: collective-consistent.  (``gather``/``scatter``/``scan`` stay out: their
#: results genuinely differ per rank.)
REPLICATED_COLLECTIVES = frozenset(
    {
        "bcast",
        "allgather",
        "allreduce",
        "allreduce_sum",
        "allreduce_max",
        "allreduce_min",
        "allgatherv",
    }
)

_SUPPRESS_RE = re.compile(
    r"#\s*spmdlint:\s*ignore\[([A-Za-z0-9_,\s]+)\]\s*(?:--\s*(\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One linter diagnostic."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Suppression:
    rules: frozenset
    justification: str
    line: int


def _collect_suppressions(source: str) -> dict[int, Suppression]:
    """Suppressions by line, from real comments only: the grammar quoted in
    a docstring or a message string is neither a suppression nor a finding.
    (``source`` already parsed, so it tokenizes.)"""
    out: dict[int, Suppression] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        m = _SUPPRESS_RE.search(tok.string) if tok.type == tokenize.COMMENT else None
        if m:
            lineno = tok.start[0]
            rules = frozenset(r.strip() for r in m.group(1).split(",") if r.strip())
            out[lineno] = Suppression(rules, (m.group(2) or "").strip(), lineno)
    return out


# --------------------------------------------------------------------------
# Per-function fact base


def _call_name(node: ast.Call) -> Optional[str]:
    """Trailing name of the called object: ``foo`` or ``x.y.foo`` -> ``foo``."""
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute/name chains as a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _assign_targets(node: ast.AST) -> Iterable[ast.AST]:
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if node.value is not None or isinstance(node, ast.AugAssign):
            yield node.target


def _flatten_target_names(target: ast.AST) -> Iterable[str]:
    """Name targets of an assignment, descending through tuple unpacking."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten_target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _flatten_target_names(target.value)


class FunctionContext:
    """Facts about one function body, computed once and shared by the rules."""

    def __init__(self, fn: ast.AST, class_name: Optional[str] = None):
        self.node = fn
        self.class_name = class_name
        self.name = getattr(fn, "name", "<lambda>")
        self.is_spmd = self._detect_spmd(fn)
        self.rank_tainted: set[str] = set()
        self.unordered: set[str] = set()
        self.received: set[str] = set()
        self._compute_taints(fn)

    # -- SPMD detection ----------------------------------------------------

    @staticmethod
    def _detect_spmd(fn: ast.AST) -> bool:
        """A function is SPMD-executed if it takes a communicator (a param
        named/annotated ``comm``/``world``/``Comm``) or reaches one through
        ``self`` (``self.comm`` / ``self._comm``)."""
        args = getattr(fn, "args", None)
        if args is not None:
            every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            for a in every:
                if a.arg in ("comm", "world"):
                    return True
                ann = a.annotation
                if ann is not None:
                    label = _dotted(ann) or (
                        ann.value if isinstance(ann, ast.Constant) else None
                    )
                    if isinstance(label, str) and label.split(".")[-1] == "Comm":
                        return True
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Attribute) and sub.attr in ("comm", "_comm"):
                if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                    return True
        return False

    # -- taint fixpoint ----------------------------------------------------

    def _expr_rank_tainted(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in RANK_DEPENDENT_CALLS:
                return True
            if name in REPLICATED_COLLECTIVES:
                # Replicated result: identical on every rank no matter how
                # tainted the per-rank contribution was.
                return False
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        if isinstance(node, ast.Name):
            return node.id in self.rank_tainted
        return any(
            self._expr_rank_tainted(child) for child in ast.iter_child_nodes(node)
        )

    def _expr_received(self, node: ast.AST) -> bool:
        """Does this expression derive from a received message buffer?

        ``.copy()`` (and copy-producing constructors) launder the taint —
        the result is rank-private memory."""
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in RECEIVE_CALLS:
                return True
            if name in ("copy", "array", "asarray", "concatenate", "zeros_like",
                        "ascontiguousarray", "deepcopy"):
                return False
            if name in ("items", "values") and isinstance(node.func, ast.Attribute):
                # Views of a received container yield received elements.
                return self._expr_received(node.func.value)
        if isinstance(node, ast.Name):
            return node.id in self.received
        if isinstance(node, ast.Subscript):
            # incoming[q] — element of a received container; but a fancy-
            # indexed ndarray read makes a fresh array.  Conservatively only
            # containers (Name base) stay tainted.
            return self._expr_received(node.value)
        if isinstance(node, ast.Attribute):
            return False
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self._expr_received(e) for e in node.elts)
        if isinstance(node, ast.IfExp):
            return self._expr_received(node.body) or self._expr_received(node.orelse)
        if isinstance(node, ast.Starred):
            return self._expr_received(node.value)
        return False

    def _expr_unordered(self, node: ast.AST) -> bool:
        """Does this expression evaluate to an unordered container (dict/set
        or a view of one)?"""
        if isinstance(node, ast.Dict) or isinstance(node, ast.Set):
            return True
        if isinstance(node, (ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in ("dict", "set", "frozenset"):
                return True
            if name in ("nbx_exchange", "dense_exchange"):
                return True
            if name in ("sorted",):
                return False
            if name in ("items", "keys", "values") and isinstance(
                node.func, ast.Attribute
            ):
                # x.items() is only unordered if x is; plain dicts preserve
                # insertion order but *which* insertion order is schedule-
                # dependent for exchange results, so inherit from the base.
                return self._expr_unordered(node.func.value)
        if isinstance(node, ast.Name):
            return node.id in self.unordered
        return False

    def _annotation_unordered(self, ann: Optional[ast.AST]) -> bool:
        if ann is None:
            return False
        label = _dotted(ann)
        if label is None and isinstance(ann, ast.Subscript):
            label = _dotted(ann.value)
        if label is None:
            return False
        return label.split(".")[-1] in (
            "dict", "Dict", "set", "Set", "frozenset", "FrozenSet",
            "Mapping", "MutableMapping",
        )

    def _compute_taints(self, fn: ast.AST) -> None:
        # Parameter annotations seed the unordered set (Mapping params are
        # exchange patterns here).
        args = getattr(fn, "args", None)
        if args is not None:
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                if self._annotation_unordered(a.annotation):
                    self.unordered.add(a.arg)

        # Binding forms the fixpoint propagates through: plain assignments
        # (incl. tuple unpacking via _flatten_target_names), walrus
        # (``if (n := comm.recv(0)) ...``), aug-assign (``acc += tainted``),
        # and annotated assignments.
        assigns = [n for n in ast.walk(fn) for _ in [0] if isinstance(n, ast.Assign)]
        named_exprs = [n for n in ast.walk(fn) if isinstance(n, ast.NamedExpr)]
        aug_assigns = [n for n in ast.walk(fn) if isinstance(n, ast.AugAssign)]
        ann_assigns = [
            n
            for n in ast.walk(fn)
            if isinstance(n, ast.AnnAssign) and n.value is not None
        ]
        for_loops = [n for n in ast.walk(fn) if isinstance(n, ast.For)]
        comp_gens = [
            g
            for n in ast.walk(fn)
            if isinstance(n, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
            for g in n.generators
        ]

        def bind(names: Iterable[str], value: ast.AST) -> bool:
            changed = False
            names = list(names)
            for name in names:
                if (
                    self._expr_rank_tainted(value)
                    and name not in self.rank_tainted
                ):
                    self.rank_tainted.add(name)
                    changed = True
                if self._expr_unordered(value) and name not in self.unordered:
                    self.unordered.add(name)
                    changed = True
                if self._expr_received(value) and name not in self.received:
                    self.received.add(name)
                    changed = True
            return changed

        for _ in range(4):  # fixpoint over simple chains
            changed = False
            for node in assigns:
                for target in node.targets:
                    changed |= bind(_flatten_target_names(target), node.value)
            for walrus in named_exprs:
                changed |= bind(
                    _flatten_target_names(walrus.target), walrus.value
                )
            for aug in aug_assigns:
                changed |= bind(_flatten_target_names(aug.target), aug.value)
            for ann in ann_assigns:
                assert ann.value is not None
                changed |= bind(_flatten_target_names(ann.target), ann.value)
            # Loop / comprehension targets inherit from the iterable: over a
            # received container they carry received elements (``for q,
            # (ids, vals) in incoming.items()``); over a rank-dependent one
            # (``for job in todo[comm.rank::comm.size]``) they are
            # rank-tainted.
            for loop in for_loops:
                changed |= self._bind_iter_target(loop.target, loop.iter)
            for gen in comp_gens:
                changed |= self._bind_iter_target(gen.target, gen.iter)
            if not changed:
                break

    def _bind_iter_target(self, target: ast.AST, it: ast.AST) -> bool:
        changed = False
        received = self._expr_received(it)
        tainted = self._expr_rank_tainted(it)
        for name in _flatten_target_names(target):
            if received and name not in self.received:
                self.received.add(name)
                changed = True
            if tainted and name not in self.rank_tainted:
                self.rank_tainted.add(name)
                changed = True
        return changed


def is_collective_call(node: ast.Call) -> bool:
    """Is this call one of the repo's collective entry points?"""
    f = node.func
    if isinstance(f, ast.Attribute) and f.attr in COLLECTIVE_METHODS:
        return True
    name = _call_name(node)
    return name in COLLECTIVE_FUNCTIONS


# --------------------------------------------------------------------------
# Rule driver


class Rule:
    """Base class: one rule instance is created per linted file."""

    id: str = "R?"
    title: str = "?"

    def check_module(self, tree: ast.Module, path: str) -> list[Finding]:
        out: list[Finding] = []
        for fn, class_name in iter_functions(tree):
            ctx = FunctionContext(fn, class_name)
            out.extend(self.check_function(ctx, path))
        return out

    def check_function(self, ctx: FunctionContext, path: str) -> list[Finding]:
        return []

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            self.id,
            path,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            message,
        )


def iter_functions(tree: ast.Module):
    """All function defs with their enclosing class name (or None)."""
    for node in tree.body:
        yield from _iter_functions_in(node, None)


def _iter_functions_in(node: ast.AST, class_name: Optional[str]):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node, class_name
        for sub in node.body:
            yield from _iter_functions_in(sub, class_name)
    elif isinstance(node, ast.ClassDef):
        for sub in node.body:
            yield from _iter_functions_in(sub, node.name)
    elif hasattr(node, "body") and isinstance(getattr(node, "body"), list):
        for sub in node.body:
            yield from _iter_functions_in(sub, class_name)
        for sub in getattr(node, "orelse", []) or []:
            yield from _iter_functions_in(sub, class_name)


def all_rules() -> list[Rule]:
    from .rules import RULES

    return [cls() for cls in RULES]


def rule_catalogue() -> dict[str, str]:
    from .rules import RULES

    return {cls.id: cls.title for cls in RULES}


def lint_source(
    source: str, path: str = "<string>", rules: Optional[Iterable[str]] = None
) -> list[Finding]:
    """Lint one source string; returns findings after applying suppressions."""
    return lint_source_ex(source, path, rules)[0]


def lint_source_ex(
    source: str, path: str = "<string>", rules: Optional[Iterable[str]] = None
) -> tuple[list[Finding], dict[str, int]]:
    """Like :func:`lint_source` but also returns per-rule counts of *used*
    suppressions (for the CLI summary)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return (
            [Finding("R0", path, exc.lineno or 0, exc.offset or 0,
                     f"syntax error: {exc.msg}")],
            {},
        )
    active = all_rules()
    if rules is not None:
        wanted = set(rules)
        active = [r for r in active if r.id in wanted]
    raw: list[Finding] = []
    for rule in active:
        raw.extend(rule.check_module(tree, path))

    suppressions = _collect_suppressions(source)
    suppressed: dict[str, int] = {}
    kept: list[Finding] = []
    for f in sorted(raw, key=lambda f: (f.line, f.col, f.rule)):
        sup = suppressions.get(f.line)
        if sup is not None and f.rule in sup.rules:
            suppressed[f.rule] = suppressed.get(f.rule, 0) + 1
            continue
        kept.append(f)
    # A suppression without a justification is itself a finding (R0):
    # the acceptance contract is that every escape hatch documents *why*.
    # So is one naming a rule outside the full catalogue (whatever ``rules``
    # selected): it suppresses nothing and would outlive the rule it names.
    known = sorted(rule_catalogue())
    for sup in suppressions.values():
        if not sup.justification:
            kept.append(
                Finding(
                    "R0", path, sup.line, 0,
                    "suppression without justification — write "
                    "`# spmdlint: ignore[RULE] -- <why this is safe>`",
                )
            )
        unknown = sorted(sup.rules.difference(known))
        if unknown:
            kept.append(
                Finding(
                    "R0", path, sup.line, 0,
                    f"suppression names unknown rule {', '.join(unknown)} "
                    f"(known: {', '.join(known)}) — delete it or "
                    "name the rule it is meant to silence",
                )
            )
    kept.sort(key=lambda f: (f.line, f.col, f.rule))
    return kept, suppressed


def lint_file(path: str, rules: Optional[Iterable[str]] = None) -> list[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path, rules)


def lint_paths(
    paths: Iterable[str], rules: Optional[Iterable[str]] = None
) -> list[Finding]:
    """Lint files and directory trees (``*.py``, sorted for stable output)."""
    return lint_paths_ex(paths, rules)[0]


def lint_paths_ex(
    paths: Iterable[str], rules: Optional[Iterable[str]] = None
) -> tuple[list[Finding], dict[str, int]]:
    """Like :func:`lint_paths` but also returns per-rule used-suppression
    counts aggregated over all files.  A path that is neither a directory
    nor a readable file raises :class:`OSError` naming it."""
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                files.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(filenames)
                    if f.endswith(".py")
                )
        else:
            files.append(p)
    out: list[Finding] = []
    counts: dict[str, int] = {}
    for fname in files:
        with open(fname, "r", encoding="utf-8") as fh:
            source = fh.read()
        findings, sup = lint_source_ex(source, fname, rules)
        out.extend(findings)
        for rule, n in sup.items():
            counts[rule] = counts.get(rule, 0) + n
    return out, counts
