"""Self-test of ``tests/traced_census.py``, without running it.

The script itself runs every entry point under a profiler (minutes; a
nightly CI step).  Here it is only read: its allowlist must name functions
that exist with a declared reason, and its classifier must flag a function
that was not entered and reject an entry whose function was.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from tests import traced_census as tc

SYNTHETIC = '''\
def ran():
    def nested():
        pass


class K:
    @property
    def used(self):
        return 1

    def unused(self):
        pass


def listed():
    pass
'''


def test_allowlist_names_existing_functions():
    absent = sorted(set(tc.ALLOWLIST) - set(tc.functions()))
    assert not absent, f"ALLOWLIST names that are no src/ function: {absent}"


def test_allowlist_reasons_name_a_declared_category():
    stray = {key: why for key, why in tc.ALLOWLIST.items()
             if not why.startswith(tc.CATEGORIES)}
    assert not stray, (
        "ALLOWLIST reasons must start with PAPER, HOOK, ROADMAP '<title>' "
        f"or FAILURE '<tier-1 test id>': {stray}"
    )


def test_failure_reasons_name_a_test_that_exists():
    for key, why in tc.ALLOWLIST.items():
        if not why.startswith(tc.FAILURE):
            continue
        test_id = why[len(tc.FAILURE):].split("'", 1)[0]
        path, *names = test_id.split("::")
        scope = ast.parse((tc.ROOT / path).read_text())
        for name in names:
            scope = next((node for node in scope.body
                          if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                          and node.name == name.split("[", 1)[0]), None)
            assert scope is not None, f"{key}: no test {test_id}"


@pytest.fixture()
def synthetic(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SYNTHETIC)
    return tmp_path


def test_functions_are_keyed_by_the_code_objects_first_line(synthetic):
    funcs = tc.functions(synthetic)
    assert set(funcs) == {"pkg.mod:ran", "pkg.mod:K.used",
                          "pkg.mod:K.unused", "pkg.mod:listed"}
    codes, stack = set(), [compile(SYNTHETIC, "mod.py", "exec")]
    while stack:
        code = stack.pop()
        codes.add((code.co_name, code.co_firstlineno))
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    # A decorated function's code starts at its first decorator.
    assert funcs["pkg.mod:K.used"][1] == 7
    for rel, first, name, _ in funcs.values():
        assert rel == "pkg/mod.py" and (name, first) in codes


def test_classifier_flags_the_unentered_and_the_stale(synthetic, tmp_path):
    funcs = tc.functions(synthetic)
    records = tmp_path / "records"
    records.mkdir()
    (records / "101.txt").write_text("pkg/mod.py:1:ran\npkg/mod.py:0:<module>")
    (records / "102.txt").write_text(textwrap.dedent("""\
        pkg/mod.py:7:used
        pkg/mod.py:2:nested"""))
    entered = tc.read_records(records)
    allowlist = {"pkg.mod:listed": tc.HOOK, "pkg.mod:ran": tc.HOOK,
                 "pkg.mod:gone": tc.PAPER}
    unlisted, listed, stale = tc.classify(funcs, entered, allowlist)
    assert unlisted == ["pkg.mod:K.unused"]
    assert listed == ["pkg.mod:listed"]
    assert stale == ["pkg.mod:gone", "pkg.mod:ran"]
