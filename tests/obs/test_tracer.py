"""Unit tests for the repro.obs tracing core: spans, counters, snapshots,
world reports, SPMD rank hooks, and the disabled-by-default and
overhead contracts the hot paths rely on."""

import json
import threading
import time

import numpy as np
import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_tracing_state():
    obs.disable()
    yield
    obs.disable()


class TestSpans:
    def test_disabled_by_default(self):
        # Importing repro.obs (already done above) must not enable tracing.
        assert not obs.is_enabled()
        assert obs.snapshot() is None
        assert obs.span("anything") is obs.NULL_SPAN

    def test_nesting_and_counts(self):
        obs.enable()
        for _ in range(3):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        snap = obs.snapshot()
        (outer,) = snap["spans"]
        assert outer["name"] == "outer"
        assert outer["count"] == 3
        (inner,) = outer["children"]
        assert inner["name"] == "inner"
        assert inner["count"] == 6

    def test_exclusive_is_inclusive_minus_children(self):
        obs.enable()
        with obs.span("outer"):
            time.sleep(0.01)
            with obs.span("inner"):
                time.sleep(0.01)
        snap = obs.snapshot()
        (outer,) = snap["spans"]
        (inner,) = outer["children"]
        assert outer["inclusive"] >= inner["inclusive"]
        assert outer["exclusive"] == pytest.approx(
            outer["inclusive"] - inner["inclusive"]
        )
        assert inner["inclusive"] >= 0.01

    def test_same_name_different_parents_distinct(self):
        obs.enable()
        with obs.span("a"):
            with obs.span("x"):
                pass
        with obs.span("b"):
            with obs.span("x"):
                pass
        flat = obs.flatten_spans(obs.snapshot())
        assert "a/x" in flat and "b/x" in flat

    def test_snapshot_inside_open_span_raises(self):
        obs.enable()
        with obs.span("open"):
            with pytest.raises(RuntimeError, match="open"):
                obs.snapshot()

    def test_tracing_context_manager_restores(self):
        assert not obs.is_enabled()
        with obs.tracing() as tr:
            assert obs.is_enabled()
            obs.incr("k")  # recorded by the tracer the block yields
            assert tr.counters == {"k": 1}
        assert not obs.is_enabled()

    def test_thread_isolation(self):
        obs.enable()
        seen = {}

        def worker():
            seen["enabled"] = obs.is_enabled()
            obs.incr("worker_counter")  # no tracer here: must be a no-op

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["enabled"] is False
        assert "worker_counter" not in obs.snapshot()["counters"]


class TestCountersGauges:
    def test_counters_accumulate(self):
        obs.enable()
        obs.incr("n")
        obs.incr("n", 4)
        snap = obs.snapshot()
        assert snap["counters"]["n"] == 5
        assert set(snap) == {"spans", "counters"}  # time, structure, work

    def test_disabled_noop(self):
        obs.incr("n")
        assert obs.snapshot() is None


class TestRankHooks:
    def test_begin_end_rank_roundtrip(self):
        obs.enable()
        assert obs.rank_armed()
        obs.begin_rank()
        with obs.span("work"):
            obs.incr("c")
        snap = obs.end_rank()
        assert snap["counters"] == {"c": 1}
        assert [s["name"] for s in snap["spans"]] == ["work"]
        assert not obs.is_enabled()  # the rank tracer is uninstalled

    def test_end_rank_force_closes_open_spans(self):
        obs.begin_rank()
        sp = obs.span("never_exited")
        sp.__enter__()
        snap = obs.end_rank()  # must not raise
        assert snap is not None


class TestWorldReport:
    def _two_rank_snaps(self):
        snaps = []
        for rank in range(2):
            obs.begin_rank()
            with obs.span("phase"):
                time.sleep(0.001 * (rank + 1))
                with obs.span("sub"):
                    pass
            obs.incr("items", 10 * (rank + 1))
            snaps.append(obs.end_rank())
        return snaps

    def test_reduction_and_imbalance(self):
        r = obs.world_report(self._two_rank_snaps())
        st = r.spans["phase"]
        assert st.n_ranks == 2
        assert st.inclusive_min <= st.inclusive_mean <= st.inclusive_max
        assert st.imbalance == pytest.approx(
            st.inclusive_max / st.inclusive_mean
        )
        assert "phase/sub" in r.spans
        assert r.counters["items"] == [10, 20]
        assert sum(r.counters["items"]) == 30

    def test_signature_excludes_times(self):
        a = obs.world_report(self._two_rank_snaps())
        b = obs.world_report(self._two_rank_snaps())
        assert a.span_tree_signature() == b.span_tree_signature()
        assert a.phase_seconds("phase") > 0
        assert a.phase_seconds("missing") == 0.0



class TestExport:
    def test_json_roundtrip(self):
        obs.begin_rank()
        with obs.span("a"):
            obs.incr("k", 2)
        snap = obs.end_rank()
        rep = obs.world_report([snap])
        loaded = json.loads(json.dumps(rep.to_dict()))
        assert loaded["counters"]["k"]["total"] == 2
        assert loaded["spans"][0]["path"] == "a"


class TestSpmdCollection:
    def test_last_spmd_report(self):
        from repro.mpi.comm import run_spmd

        def fn(comm):
            with obs.span("work"):
                obs.incr("done")
            return comm.rank

        with obs.tracing():
            res = run_spmd(4, fn)
            report = obs.last_spmd_report()
        assert res == [0, 1, 2, 3]  # user results unwrapped
        assert report.n_ranks == 4
        assert sum(report.counters["done"]) == 4

    def test_untraced_run_collects_nothing(self):
        from repro.mpi.comm import run_spmd

        obs._set_last_spmd([])
        res = run_spmd(2, lambda c: c.rank)
        assert res == [0, 1]
        assert obs.last_spmd_report() is None


class TestOverhead:
    def test_disabled_tracer_is_the_shared_noop(self):
        """The disabled-path contract is structural: every ``obs.span`` is
        the one shared no-op object and an instrumented hot kernel (the
        assembly-plan numeric update) records nothing.  No wall clock is
        asserted in tier-1."""
        from repro.fem.plan import AssemblyPlan
        from repro.mesh.mesh import Mesh
        from repro.octree.build import uniform_tree

        assert not obs.is_enabled()
        plan = AssemblyPlan(Mesh.from_tree(uniform_tree(2, 3)))
        Ke = np.random.default_rng(0).standard_normal(plan.ke_shape)
        plan.assemble(Ke)
        obs.incr("some.counter")
        assert obs.span("assembly.numeric") is obs.NULL_SPAN
        with obs.span("outer") as sp_outer:
            assert obs.span("inner") is sp_outer is obs.NULL_SPAN
        assert not obs.is_enabled() and obs.snapshot() is None

        # Same kernel traced: the span the disabled run skipped.
        obs.enable()
        plan.assemble(Ke)
        snap = obs.snapshot()
        assert [(n["name"], n["count"]) for n in snap["spans"]] == [
            ("assembly.numeric", 1)]
