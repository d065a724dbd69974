"""Batch-service tests: failure isolation, resume-only-unfinished, the
results store's crash tolerance, and the communication-free worker."""

import json
import os

import pytest

from repro.mpi.comm import run_spmd
from repro.mpi.stats import CommStats
from repro.scenarios import ResultsStore, build, make_jobs, run_batch
from repro.scenarios.batch import BatchJob, _batch_worker


def _quick(name, **override):
    cfg = build(name, quick=True)
    cfg.control.backend = "serial"
    for k, v in override.items():
        setattr(cfg, k, v)
    return cfg


def _diverging():
    cfg = _quick("drop_2d")
    cfg.time.dt = 1e6
    cfg.physics["Pe"] = 1e6
    return cfg


class TestMakeJobs:
    def test_repeats_get_distinct_ids_and_seeds(self):
        jobs = make_jobs([_quick("drop_2d")], repeats=3, base_seed=10)
        assert [j.job_id for j in jobs] == [
            "drop_2d.r0", "drop_2d.r1", "drop_2d.r2"
        ]
        assert [j.config.control.seed for j in jobs] == [10, 11, 12]

    def test_duplicate_ids_rejected(self):
        cfg = _quick("drop_2d")
        with pytest.raises(ValueError, match="duplicate"):
            make_jobs([cfg, cfg])


class TestFailureIsolation:
    def test_one_divergent_job_does_not_poison_the_batch(self, tmp_path):
        jobs = [
            BatchJob("ok_a", _quick("drop_2d")),
            BatchJob("boom", _diverging()),
            BatchJob("ok_b", _quick("coalescence_2d")),
        ]
        store = ResultsStore(str(tmp_path))
        report = run_batch(jobs, store, concurrency=2, backend="serial")
        assert report.statuses == {"succeeded": 2, "failed": 1}
        assert not report.all_succeeded
        assert not report.interrupted
        boom = report.results["boom"]
        assert boom.status == "failed"
        assert "SolverDivergence" in boom.error
        assert report.results["ok_a"].status == "succeeded"
        assert report.results["ok_b"].status == "succeeded"

    def test_consolidated_store_matches_per_job_records(self, tmp_path):
        jobs = [BatchJob("ok", _quick("drop_2d")),
                BatchJob("boom", _diverging())]
        store = ResultsStore(str(tmp_path))
        run_batch(jobs, store, backend="serial")
        with open(os.path.join(str(tmp_path), "results.json")) as fh:
            blob = json.load(fh)
        assert set(blob["jobs"]) == {"ok", "boom"}
        assert blob["jobs"]["boom"]["status"] == "failed"
        assert blob["meta"]["last_batch"]["n_run"] == 2


class TestResume:
    def test_only_unfinished_jobs_rerun(self, tmp_path):
        jobs = make_jobs(
            [_quick("drop_2d"), _quick("coalescence_2d")], repeats=2
        )
        store = ResultsStore(str(tmp_path))
        first = run_batch(jobs[:2], store, backend="serial")
        assert first.n_run == 2 and first.n_skipped == 0

        second = run_batch(jobs, store, backend="serial")
        assert second.n_skipped == 2
        assert second.n_run == 2
        assert second.statuses == {"succeeded": 4}

        third = run_batch(jobs, store, backend="serial")
        assert third.n_run == 0 and third.n_skipped == 4

    def test_failed_jobs_are_final_interrupted_jobs_are_not(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        jobs = [BatchJob("boom", _diverging()), BatchJob("ok", _quick("drop_2d"))]
        run_batch(jobs, store, backend="serial")
        # hand-write an interrupted record: it must NOT count as finished
        interrupted = store.load_jobs()["ok"]
        interrupted.status = "interrupted"
        store.write_job(interrupted)
        assert store.finished_ids() == {"boom"}

        report = run_batch(jobs, store, backend="serial")
        assert report.n_skipped == 1  # boom's failure is a final verdict
        assert report.results["ok"].status == "succeeded"

    def test_no_resume_reruns_everything(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        jobs = [BatchJob("ok", _quick("drop_2d"))]
        run_batch(jobs, store, backend="serial")
        report = run_batch(jobs, store, backend="serial", resume=False)
        assert report.n_run == 1 and report.n_skipped == 0

    def test_torn_record_is_rerun(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        jobs = [BatchJob("ok", _quick("drop_2d"))]
        run_batch(jobs, store, backend="serial")
        # simulate a worker killed mid-write, before any consolidation
        with open(store.job_path("ok"), "w") as fh:
            fh.write('{"job_id": "ok", "stat')
        os.remove(store.results_path)
        assert store.finished_ids() == set()
        report = run_batch(jobs, store, backend="serial")
        assert report.n_run == 1
        assert report.results["ok"].status == "succeeded"


class TestConcurrency:
    @pytest.mark.slow
    def test_thread_workers_match_serial_statuses(self, tmp_path):
        jobs = make_jobs(
            [_quick("drop_2d"), _quick("coalescence_2d")], repeats=2
        )
        store = ResultsStore(str(tmp_path))
        report = run_batch(jobs, store, concurrency=4, backend="thread")
        assert report.statuses == {"succeeded": 4}

    def test_worker_is_communication_free(self, tmp_path):
        # Measured, not proved: two worker ranks run a job each and no p2p,
        # collective, barrier or split counter moves — so ranks cannot
        # deadlock on each other and a dead rank loses only its own jobs.
        todo = [
            BatchJob("a", _quick("drop_2d")),
            BatchJob("b", _quick("coalescence_2d")),
        ]
        store = ResultsStore(str(tmp_path))
        store.prepare()
        s = CommStats()
        out = run_spmd(
            2, _batch_worker, todo, store, None, stats=s, backend="serial"
        )
        assert [[r["status"] for r in rank] for rank in out] == [
            ["succeeded"], ["succeeded"]
        ]
        snap = s.snapshot()
        assert snap == dict.fromkeys(snap, 0)

    def test_concurrency_capped_at_job_count(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        report = run_batch(
            [BatchJob("solo", _quick("drop_2d"))], store,
            concurrency=8, backend="serial",
        )
        assert report.statuses == {"succeeded": 1}
