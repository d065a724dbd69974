"""Every public name in ``src/`` has a caller outside the tests, or a reason.

The census lists the public top-level functions and classes of every
module under ``src/repro`` and the public methods of its public classes.
A listed name passes when code in ``src/``, ``benchmarks/`` or
``examples/`` refers to it: as a name, an attribute or an import (a
package ``__init__`` re-export does not count, nor does a reference inside
the definition itself), or as one of the name strings
``benchmarks/perf/trace.py`` wraps.  Docstrings and comments never count.
Anything else must be in :data:`KEPT` with the reason it stays.

Beside it, the counter census: ``repro.obs`` records time and structure,
and an ``obs.incr`` counts only work that no span's call count, no
returned result and no ``iteration_counts`` key already holds.  Those
counters are :data:`COUNTERS`, each a row of the DESIGN.md §6 table, and
there are no gauges.

Last, the dependency census: every third-party module ``src/`` imports is
one ``pyproject.toml`` declares, and every declared one is imported.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples")
TRACE = ROOT / "benchmarks" / "perf" / "trace.py"
DESIGN = ROOT / "DESIGN.md"
PYPROJECT = ROOT / "pyproject.toml"

ORACLE = "test oracle"
PAPER = "paper algorithm (Sec. II-C, arXiv:2209.12130)"
HOOK = "test hook of the SPMD / obs contracts"

#: ``module:qualname`` -> why it stays without a non-test caller.
KEPT = {
    # Oracles the fast paths are checked against.
    "fem.assembly:assemble_matrix": ORACLE + ": plan assembly",
    "fem.assembly:apply_dirichlet": ORACLE + ": plan elimination",
    "fem.matvec:apply_elemental": ORACLE + ": DistributedField.matvec",
    "mesh.mesh:Mesh.elem_scatter": ORACLE + ": plan load scatter",
    "la.gmg:prolongation": ORACLE + ": the GMG hierarchy's transfer",
    "octree.refine:refine_recursive": ORACLE + ": refine",
    "octree.coarsen:coarsen_recursive": ORACLE + ": coarsen",
    "io.vtk:read_vtk_summary": ORACLE + ": write_vtk round trip",
    "octree.tree:Octree.coverage": ORACLE + ": completeness of a tree",
    # The paper's parallel algorithms, kept as SPMD entry points.
    "octree.parcoarsen:par_coarsen": PAPER,
    "octree.parbalance:par_balance": PAPER,
    "mesh.intergrid:par_transfer_node_centered": PAPER,
    "mesh.intergrid:transfer_cell_centered": PAPER,
    "octree.overlap:overlapping_ranks_bsearch": PAPER,
    "mesh.distributed:DistributedField.erode_dilate_step": PAPER,
    "octree.tree:Octree.linearize": PAPER,
    "octree.partition:partition_endpoints": PAPER,
    # Decided by another ROADMAP item.
    "chns.analysis:breakup_detected": "ROADMAP 'Horizons'",
    "chns.analysis:droplet_statistics": "ROADMAP 'Horizons'",
    "chns.analysis:interface_measure": "ROADMAP 'Horizons'",
    "chns.analysis:phase_volume": "ROADMAP 'Horizons'",
    # Test hooks and fixtures.
    "analysis.runtime_check:force_checks": HOOK,
    "octree.partition:scatter_tree": HOOK + ": distributes a fixture tree",
    "mesh.distributed:DistributedField.to_global": HOOK,
    "obs.report:WorldReport.span_tree_signature": HOOK,
    "obs:last_spmd_report": HOOK,
    "obs.tracer:is_enabled": HOOK,
    "octree.tree:Octree.merged": HOOK,
}


def _src_files():
    return sorted(SRC.rglob("*.py"))


def _module(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module, mod: str):
    """``(module:qualname, node)`` for every public top-level function and
    class and every public method of a public class in one module."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not _is_public(node.name):
            continue
        yield f"{mod}:{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _is_public(item.name):
                    yield f"{mod}:{node.name}.{item.name}", item


def public_names() -> list[str]:
    return [
        key
        for path in _src_files()
        for key, _ in _definitions(ast.parse(path.read_text()), _module(path))
    ]


def _refs(tree: ast.AST, reexport: bool, skip: set[int]) -> set[str]:
    """Names, attributes and imported names in ``tree``, outside the
    definition nodes whose ids are in ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexport:
            found.update(a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _trace_strings() -> set[str]:
    return {
        node.value
        for node in ast.walk(ast.parse(TRACE.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    }


def unreferenced() -> list[str]:
    """Public ``src/`` names with no code reference outside the tests."""
    home = {}  # key -> (refs of its own file outside the definition, file refs)
    files_citing = Counter(_trace_strings())
    trees = {path: ast.parse(path.read_text()) for path in _src_files()}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = trees.get(path) or ast.parse(path.read_text())
            reexport = path.name == "__init__.py"
            refs = _refs(tree, reexport, set())
            files_citing.update(refs)
            if path in trees:
                mod = _module(path)
                for key, node in _definitions(tree, mod):
                    home[key] = (_refs(tree, reexport, {id(node)}), refs)
    missing = []
    for key, (outside, own_file) in home.items():
        attr = key.split(":")[1].split(".")[-1]
        # A reference from inside its own definition is not a caller.
        if attr not in outside and files_citing[attr] == (attr in own_file):
            missing.append(key)
    return sorted(missing)


def test_every_public_name_has_a_caller_or_a_reason():
    missing = [key for key in unreferenced() if key not in KEPT]
    assert not missing, (
        "public src/ names with no caller outside tests; give each a caller, "
        "delete it, or add it to KEPT with a reason:\n  " + "\n  ".join(missing)
    )


def test_kept_names_exist_and_still_need_their_entry():
    names = public_names()
    absent = sorted(set(KEPT) - set(names))
    assert not absent, f"KEPT names that no longer exist: {absent}"
    stale = sorted(set(KEPT) - set(unreferenced()))
    assert not stale, f"KEPT names that now have a caller: {stale}"


#: Every ``obs.incr`` name in ``src/``.
COUNTERS = {
    "assembly.symbolic",
    "assembly.vector",
    "assembly.dirichlet",
    "ch.mobility_assemblies",
    "comm.send_bytes",
    "comm.collective_bytes",
}


def obs_calls(attr: str) -> list[tuple[str, ast.Call]]:
    """``(file, call)`` for every ``obs.<attr>(...)`` call in ``src/``."""
    return [
        (path.name, node)
        for path in _src_files()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "obs"
    ]


def design_counter_rows() -> list[str]:
    """First-cell names of the table rows in DESIGN.md §6."""
    text = DESIGN.read_text()
    section = text.split("\n## 6.", 1)[1].split("\n## 7.", 1)[0]
    rows = [line.strip() for line in section.splitlines()]
    return [row.split("|")[1].strip().strip("`")
            for row in rows if row.startswith("| `")]


def test_obs_counters_are_the_six_of_design():
    from repro import obs

    names = []
    for where, call in obs_calls("incr"):
        first = call.args[0] if call.args else None
        assert isinstance(first, ast.Constant) and isinstance(
            first.value, str), f"{where}: a counter name is a string literal"
        names.append(first.value)
    assert set(names) == COUNTERS
    rows = design_counter_rows()
    assert sorted(rows) == sorted(COUNTERS), "one DESIGN §6 row per counter"
    assert not obs_calls("gauge")
    assert not hasattr(obs, "gauge") and not hasattr(obs.Tracer, "gauge")


def imported_modules() -> set[str]:
    """Top-level names of every absolute import in ``src/``, function-level
    imports included."""
    names = set()
    for path in _src_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    """Names in ``[project] dependencies`` of pyproject.toml (read without
    ``tomllib``, which Python 3.10 lacks)."""
    text = PYPROJECT.read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    return set(re.findall(r"[\"']([A-Za-z0-9_.-]+)", block.group(1)))


def test_src_imports_only_declared_dependencies():
    third_party = (imported_modules() - {"repro", "__future__"}
                   - set(sys.stdlib_module_names))
    assert third_party == declared_dependencies()
