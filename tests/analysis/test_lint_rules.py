"""spmdlint rule catalogue: positive and negative fixtures per rule, the
suppression contract, the CLI, and the src/ tree staying clean."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import lint_paths, lint_source, rule_catalogue
from repro.analysis.__main__ import main as lint_main

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def lint(code, rules=None):
    return lint_source(textwrap.dedent(code), "<test>", rules)


def rules_of(findings):
    return [f.rule for f in findings]


class TestR1RankDivergentCollective:
    def test_collective_under_rank_branch(self):
        fs = lint(
            """
            def f(comm):
                if comm.rank == 0:
                    comm.barrier()
            """
        )
        assert rules_of(fs) == ["R1"]
        assert "barrier" in fs[0].message

    def test_collective_after_rank_early_return(self):
        fs = lint(
            """
            def f(comm):
                if comm.rank == 0:
                    return None
                return comm.allreduce(1)
            """
        )
        assert rules_of(fs) == ["R1"]
        assert "early exit" in fs[0].message

    def test_taint_flows_through_assignment(self):
        fs = lint(
            """
            def f(comm):
                me = comm.rank
                leader = me == 0
                if leader:
                    comm.bcast(1)
            """
        )
        assert rules_of(fs) == ["R1"]

    def test_repo_collective_functions_flagged(self):
        fs = lint(
            """
            def f(comm, outgoing):
                if comm.rank > 0:
                    nbx_exchange(comm, outgoing)
            """
        )
        assert rules_of(fs) == ["R1"]

    def test_rank_dependent_continue_poisons_loop_only(self):
        # `continue` under a rank test poisons collectives in the same loop
        # but not collectives after the loop.
        fs = lint(
            """
            def f(comm):
                for q in range(comm.size):
                    if q == comm.rank:
                        continue
                    comm.send(1, q)
                comm.barrier()
            """
        )
        assert fs == []

    def test_rank_dependent_break_flags_later_loop_collective(self):
        fs = lint(
            """
            def f(comm):
                for q in range(comm.size):
                    if q == comm.rank:
                        break
                    comm.allreduce(q)
            """
        )
        assert rules_of(fs) == ["R1"]

    def test_uniform_branch_is_clean(self):
        fs = lint(
            """
            def f(comm, n):
                if n > 4:
                    comm.barrier()
                total = comm.allreduce(n)
                if total > 0:
                    comm.bcast(total)
            """
        )
        assert fs == []

    def test_branching_on_replicated_result_is_clean(self):
        # allreduce/bcast results agree on every rank — branching on them
        # is collective-consistent.
        fs = lint(
            """
            def f(comm, x):
                again = comm.allreduce(x)
                while again:
                    comm.barrier()
                    again = comm.allreduce(x - 1)
            """
        )
        assert fs == []

    def test_recv_result_is_tainted(self):
        fs = lint(
            """
            def f(comm):
                flag = comm.recv(source=0)
                if flag:
                    comm.barrier()
            """
        )
        assert rules_of(fs) == ["R1"]


class TestTaintFixpoint:
    """Rank-taint must reach a fixpoint through every binding form the
    analyzer models: tuple unpacking, walrus, aug-assign, loop targets."""

    def test_tuple_unpack_propagates_taint(self):
        fs = lint(
            """
            def f(comm):
                lo, hi = comm.rank, comm.rank + 1
                if hi > 2:
                    comm.barrier()
            """
        )
        assert rules_of(fs) == ["R1"]

    def test_tuple_unpack_of_uniform_values_is_clean(self):
        fs = lint(
            """
            def f(comm, n):
                lo, hi = 0, n
                if hi > 2:
                    comm.barrier()
            """
        )
        assert fs == []

    def test_walrus_propagates_taint(self):
        fs = lint(
            """
            def f(comm):
                if (r := comm.rank) and r > 0:
                    comm.barrier()
                return r
            """
        )
        assert rules_of(fs) == ["R1"]

    def test_walrus_of_uniform_value_is_clean(self):
        fs = lint(
            """
            def f(comm, n):
                if (m := n * 2) > 4:
                    comm.barrier()
                return m
            """
        )
        assert fs == []

    def test_aug_assign_propagates_taint(self):
        fs = lint(
            """
            def f(comm, n):
                acc = 0
                acc += comm.rank
                if acc > n:
                    comm.allreduce(acc)
            """
        )
        assert rules_of(fs) == ["R1"]

    def test_aug_assign_of_uniform_value_is_clean(self):
        fs = lint(
            """
            def f(comm, n):
                acc = 0
                acc += n
                if acc > 4:
                    comm.allreduce(acc)
            """
        )
        assert fs == []

    def test_for_target_over_tainted_iterable_propagates(self):
        fs = lint(
            """
            def f(comm):
                got = comm.recv(source=0)
                for v in got:
                    if v:
                        comm.barrier()
            """
        )
        assert "R1" in rules_of(fs)

    def test_for_target_over_uniform_iterable_is_clean(self):
        fs = lint(
            """
            def f(comm, items):
                for v in items:
                    if v:
                        comm.barrier()
            """
        )
        assert fs == []

    def test_replicated_collective_launders_taint(self):
        # gather/scan stay rank-dependent; allreduce of a tainted value is
        # replicated and safe to branch on.
        fs = lint(
            """
            def f(comm):
                moved = comm.rank * 2
                total = comm.allreduce(moved)
                if total > 0:
                    comm.barrier()
            """
        )
        assert fs == []

    def test_scan_does_not_launder_taint(self):
        fs = lint(
            """
            def f(comm):
                part = comm.scan(1)
                if part > 2:
                    comm.barrier()
            """
        )
        assert rules_of(fs) == ["R1"]


class TestR2UnorderedIteration:
    def test_send_loop_over_dict(self):
        fs = lint(
            """
            def f(comm, outgoing: dict):
                for dest, payload in outgoing.items():
                    comm.send(payload, dest)
            """
        )
        assert rules_of(fs) == ["R2"]
        assert "sorted" in fs[0].message

    def test_float_accumulation_over_exchange_result(self):
        fs = lint(
            """
            def f(comm, outgoing):
                incoming = nbx_exchange(comm, outgoing)
                total = 0.0
                for q, vals in incoming.items():
                    total += vals.sum()
                return total
            """
        )
        assert rules_of(fs) == ["R2"]

    def test_ufunc_at_over_exchange_result(self):
        fs = lint(
            """
            def f(comm, outgoing, acc, idx):
                incoming = nbx_exchange(comm, outgoing)
                for q, vals in incoming.items():
                    np.add.at(acc, idx, vals)
            """
        )
        assert rules_of(fs) == ["R2"]

    def test_materializing_values_view(self):
        fs = lint(
            """
            def f(comm, outgoing):
                incoming = nbx_exchange(comm, outgoing)
                return list(incoming.values())
            """
        )
        assert rules_of(fs) == ["R2"]

    def test_sorted_iteration_is_clean(self):
        fs = lint(
            """
            def f(comm, outgoing: dict):
                for dest, payload in sorted(outgoing.items()):
                    comm.send(payload, dest)
            """
        )
        assert fs == []

    def test_disjoint_assignment_is_clean(self):
        # Plain keyed assignment has no order sensitivity.
        fs = lint(
            """
            def f(comm, outgoing):
                incoming = nbx_exchange(comm, outgoing)
                out = {}
                for q, vals in incoming.items():
                    out[q] = vals
                return out
            """
        )
        assert fs == []

    def test_non_spmd_function_not_flagged(self):
        fs = lint(
            """
            def summarize(counters: dict):
                total = 0.0
                for name, v in counters.items():
                    total += v
                return total
            """
        )
        assert fs == []


class TestR3Nondeterminism:
    def test_wall_clock_in_spmd(self):
        fs = lint(
            """
            def f(comm):
                t0 = time.time()
                comm.barrier()
                return time.time() - t0
            """
        )
        assert rules_of(fs) == ["R3", "R3"]

    def test_unseeded_global_random(self):
        fs = lint(
            """
            def f(comm):
                return random.random() + comm.rank
            """
        )
        assert rules_of(fs) == ["R3"]

    def test_unseeded_numpy_rng(self):
        fs = lint(
            """
            def f(comm):
                rng = np.random.default_rng()
                return rng.random()
            """
        )
        assert rules_of(fs) == ["R3"]

    def test_seeded_rng_is_clean(self):
        fs = lint(
            """
            def f(comm, seed):
                rng = np.random.default_rng(seed + comm.rank)
                return rng.random()
            """
        )
        assert fs == []

    def test_sleep_is_allowed(self):
        fs = lint(
            """
            def f(comm):
                time.sleep(0)
                comm.barrier()
            """
        )
        assert fs == []

    def test_clock_outside_spmd_is_clean(self):
        fs = lint(
            """
            def bench():
                t0 = time.perf_counter()
                work()
                return time.perf_counter() - t0
            """
        )
        assert fs == []


class TestR4StalePlanAssembly:
    def test_cached_plan_attribute(self):
        fs = lint(
            """
            def f(solver, Ke):
                return solver.plan.assemble(Ke)
            """
        )
        assert rules_of(fs) == ["R4"]
        assert "generation" in fs[0].message

    def test_fresh_plan_from_get_plan(self):
        fs = lint(
            """
            def f(mesh, Ke):
                plan = get_plan(mesh)
                return plan.assemble(Ke)
            """
        )
        assert fs == []

    def test_checked_plan_is_clean(self):
        fs = lint(
            """
            def f(solver, mesh, Ke):
                solver.plan.check(mesh)
                return solver.plan.assemble(Ke)
            """
        )
        assert fs == []

    def test_assemble_for_is_clean(self):
        fs = lint(
            """
            def f(solver, mesh, Ke):
                return solver.plan.assemble_for(mesh, Ke)
            """
        )
        assert fs == []

    def test_every_numeric_method_on_a_cached_plan(self):
        """The load scatter and the Dirichlet plan apply per-generation
        symbolic state exactly as ``assemble`` does."""
        fs = lint(
            """
            def f(solver, A, be, mask):
                b = solver.plan.scatter_loads(be)
                return solver.plan.eliminate(A, mask), b
            """
        )
        assert rules_of(fs) == ["R4", "R4"]
        assert "scatter_loads" in fs[0].message
        assert "eliminate" in fs[1].message

    def test_new_numeric_methods_fresh_or_checked_are_clean(self):
        fs = lint(
            """
            def f(solver, mesh, A, be, mask):
                plan = get_plan(mesh)
                A_bc = plan.eliminate(A, mask)
                solver.plan.check(mesh)
                return A_bc, solver.plan.scatter_loads(be)

            def g(mesh, be):
                return get_plan(mesh).scatter_loads(be)
            """
        )
        assert fs == []

    def test_unrelated_scatter_is_not_a_plan_method(self):
        fs = lint(
            """
            def f(comm, chunks):
                return comm.scatter(chunks, root=0)
            """
        )
        assert fs == []


class TestR5MutatedReceiveBuffer:
    def test_subscript_write_to_recv(self):
        fs = lint(
            """
            def f(comm):
                buf = comm.recv(source=0)
                buf[0] = 1.0
            """
        )
        assert rules_of(fs) == ["R5"]
        assert "copy" in fs[0].message

    def test_augassign_on_bcast_result(self):
        fs = lint(
            """
            def f(comm, x):
                arr = comm.bcast(x)
                arr += 1
            """
        )
        assert rules_of(fs) == ["R5"]

    def test_inplace_method_on_exchange_element(self):
        fs = lint(
            """
            def f(comm, outgoing):
                incoming = nbx_exchange(comm, outgoing)
                for q, vals in incoming.items():
                    vals.sort()
            """
        )
        assert "R5" in rules_of(fs)

    def test_copy_launders_taint(self):
        fs = lint(
            """
            def f(comm):
                buf = comm.recv(source=0).copy()
                buf[0] = 1.0
            """
        )
        assert fs == []

    def test_np_array_launders_taint(self):
        fs = lint(
            """
            def f(comm):
                buf = np.array(comm.recv(source=0))
                buf += 1
            """
        )
        assert fs == []


class TestSuppressions:
    def test_justified_suppression_silences_rule(self):
        fs = lint(
            """
            def f(comm):
                if comm.rank == 0:
                    comm.barrier()  # spmdlint: ignore[R1] -- test fixture, provably safe
            """
        )
        assert fs == []

    def test_suppression_is_rule_specific(self):
        fs = lint(
            """
            def f(comm):
                if comm.rank == 0:
                    comm.barrier()  # spmdlint: ignore[R2] -- wrong rule named
            """
        )
        assert rules_of(fs) == ["R1"]

    def test_bare_suppression_is_reported(self):
        fs = lint(
            """
            def f(comm):
                if comm.rank == 0:
                    comm.barrier()  # spmdlint: ignore[R1]
            """
        )
        assert rules_of(fs) == ["R0"]
        assert "justification" in fs[0].message

    @pytest.mark.parametrize("stale", ["R7", "R6", "R11"])
    def test_unknown_rule_id_is_reported(self, stale):
        # A retired rule's id (R6, R7) or a typo suppresses nothing; it is
        # R0 against the full catalogue even when --rules selects a subset.
        code = f"""
            def f(comm):
                if comm.size > 1:  # spmdlint: ignore[{stale}] -- stale escape hatch
                    comm.barrier()
        """
        for rules in (None, ["R2"]):
            fs = lint(code, rules=rules)
            assert rules_of(fs) == ["R0"]
            assert f"unknown rule {stale}" in fs[0].message
        # Only real comments count: the grammar quoted in a string is inert.
        assert lint(f'HELP = "# spmdlint: ignore[{stale}] -- quoted"\n') == []


class TestDriverAndCli:
    def test_rule_catalogue_has_all_eight(self):
        assert set(rule_catalogue()) == {"R1", "R2", "R3", "R4", "R5"}

    def test_rule_filter(self):
        code = """
            def f(comm):
                t = time.time()
                if comm.rank == 0:
                    comm.barrier()
        """
        assert rules_of(lint(code, rules=["R3"])) == ["R3"]
        assert rules_of(lint(code)) == ["R3", "R1"]

    def test_syntax_error_reported_not_raised(self):
        fs = lint("def f(:\n")
        assert rules_of(fs) == ["R0"]

    def test_cli_clean_file(self, tmp_path, capsys):
        p = tmp_path / "ok.py"
        p.write_text("def f(comm):\n    comm.barrier()\n")
        assert lint_main([str(p)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_cli_finding_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "bad.py"
        p.write_text("def f(comm):\n    if comm.rank:\n        comm.barrier()\n")
        assert lint_main([str(p)]) == 1
        out = capsys.readouterr().out
        assert "R1" in out and "bad.py" in out

    def test_cli_json_format(self, tmp_path, capsys):
        import json

        p = tmp_path / "bad.py"
        p.write_text("def f(comm):\n    if comm.rank:\n        comm.barrier()\n")
        assert lint_main([str(p), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data[0]["rule"] == "R1"
        assert data[0]["line"] == 3

    def test_module_entry_point(self, tmp_path):
        p = tmp_path / "bad.py"
        p.write_text("def f(comm):\n    if comm.rank:\n        comm.barrier()\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        r = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(p)],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode == 1
        assert "R1" in r.stdout

    def test_suppression_counts_in_summary(self, tmp_path, capsys):
        p = tmp_path / "sup.py"
        p.write_text(
            "def f(comm):\n    if comm.rank:\n"
            "        comm.barrier()  # spmdlint: ignore[R1] -- test fixture\n"
        )
        assert lint_main([str(p)]) == 0
        assert "1 suppression used (R1: 1)" in capsys.readouterr().out

    def test_missing_path_exits_2_naming_it(self, tmp_path, capsys):
        # The CI gate must not pass on a typo: neither a missing directory
        # nor a missing file may lint as "0 findings".
        ok = tmp_path / "ok.py"
        ok.write_text("def f(comm):\n    comm.barrier()\n")
        for bogus in (str(tmp_path / "scr"), str(tmp_path / "nonexistent.py")):
            assert lint_main([str(ok), bogus]) == 2
            captured = capsys.readouterr()
            assert bogus in captured.err
            assert "findings" not in captured.out


class TestSrcTreeClean:
    def test_src_repro_has_no_findings(self):
        # The acceptance gate: the whole tree lints clean with every rule
        # active, and every suppression carries a justification (else R0).
        findings = lint_paths([os.path.join(REPO, "src", "repro")])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_regression_fixed_sites_stay_sorted(self):
        # The PR's true-positive fixes: peer loops in the exchanges and the
        # octree reductions must iterate in sorted order.
        import inspect

        from repro.mpi import sparse_exchange
        from repro.octree import parbalance, parcoarsen

        assert "sorted(outgoing.items())" in inspect.getsource(
            sparse_exchange.dense_exchange
        )
        assert "sorted(outgoing.items())" in inspect.getsource(
            sparse_exchange.nbx_exchange
        )
        assert "sorted(incoming.items())" in inspect.getsource(
            parbalance.par_balance
        )
        assert "sorted(incoming)" in inspect.getsource(parcoarsen.par_coarsen)
