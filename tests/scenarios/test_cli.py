"""CLI tests: the verbs and exit codes the CI smoke job depends on."""

import json

import pytest

from repro.scenarios import build, run_scenario, runner
from repro.scenarios.cli import main
from repro.scenarios.registry import variants
from repro.scenarios.store import ResultsStore

from .test_runner import newton_never_converges


class TestList:
    def test_lists_every_variant(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in variants():
            assert name in out


class TestRun:
    def test_run_two_scenarios_exit_zero(self, tmp_path, capsys):
        rc = main([
            "run", "drop_2d", "coalescence_2d", "--quick",
            "--backend", "serial", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "succeeded" in capsys.readouterr().out

    def test_run_failure_exits_one(self, tmp_path, capsys):
        # a microsecond budget -> timeout, a non-succeeded verdict
        rc = main([
            "run", "drop_2d", "--quick", "--backend", "serial",
            "--timeout", "1e-6", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "non-succeeded" in capsys.readouterr().err

    def test_run_without_names_is_usage_error(self, tmp_path, capsys):
        rc = main(["run", "--quick", "--out", str(tmp_path)])
        assert rc == 2
        assert "names or --all" in capsys.readouterr().err

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        rc = main(["run", "warp_drive_2d", "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_backend_names_choices(self, tmp_path, capsys):
        rc = main(["run", "drop_2d", "--quick", "--backend", "bogus",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "serial" in err

    def test_dims_filter_excluding_everything_errors(self, tmp_path, capsys):
        rc = main(["run", "drop_3d", "--quick", "--dims", "2",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_resume_skips_finished(self, tmp_path, capsys):
        args = ["run", "drop_2d", "--quick", "--backend", "serial",
                "--out", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "0 run, 1 resumed-as-done" in capsys.readouterr().out


class TestStatusReport:
    def _populate(self, tmp_path):
        assert main([
            "run", "drop_2d", "coalescence_2d", "--quick",
            "--backend", "serial", "--out", str(tmp_path),
        ]) == 0

    def test_status_assert_succeeded(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["status", "--out", str(tmp_path),
                     "--assert-succeeded"]) == 0

    def test_status_empty_store_exits_one(self, tmp_path, capsys):
        assert main(["status", "--out", str(tmp_path / "nope")]) == 1

    def test_report_aggregates_by_family(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_jobs"] == 2
        assert set(payload["families"]) == {"drop", "coalescence"}
        assert payload["statuses"] == {"succeeded": 2}
        for family in payload["families"].values():
            # CH-only jobs: no NS/PP/VU solve, but the CH linear work shows
            assert family["krylov"] == 0 < family["ch_linear"]
            assert family["vu_factorizations"] == 0
            assert family["ns_factorizations"] == 0
            assert family["pp_factorizations"] == 0
            assert 0 < family["ch_factorizations"] <= family["newton"]
            # one residual per full step, more when the line search backtracks
            assert family["line_search_trials"] >= family["newton"]
            # the quick profiles stop before their first remesh
            assert family["remesh_cycles"] == family["remesh_unchanged"] == 0

    def test_report_sums_remesh_cycles(self, tmp_path, capsys):
        """Full ``jet_2d`` remeshes at steps 2 and 4, and the first cycle
        keeps the mesh: the family row sums both counts."""
        assert main(["run", "jet_2d", "--backend", "serial",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path)]) == 0
        family = json.loads(capsys.readouterr().out)["families"]["jet"]
        assert (family["remesh_cycles"], family["remesh_unchanged"]) == (2, 1)

    def test_report_sums_old_and_new_records(self, tmp_path, capsys):
        """A store holding a record written before ``JobResult.counts``
        (flat count fields) beside a new one: ``status`` shows both Newton
        counts and ``report`` sums every count either carries."""
        assert main(["run", "drop_2d", "--quick", "--backend", "serial",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        new = ResultsStore(str(tmp_path)).load_jobs()["drop_2d"]
        old = {
            "job_id": "drop_2d_old", "name": "drop_2d", "family": "drop",
            "status": "succeeded", "steps_done": 2, "n_steps": 2,
            "wall_s": 0.5, "newton_iterations": 7, "line_search_trials": 8,
            "krylov_iterations": 0, "ch_linear": 11, "ch_factorizations": 1,
            "ns_factorizations": 0, "pp_factorizations": 0,
            "vu_factorizations": 0, "krylov_unconverged": 0,
            "remesh_cycles": 0, "remesh_unchanged": 0, "n_elems_final": 64,
            "diagnostics": {}, "error": None, "resumed_from_step": None,
            "seed": 0, "backend": "serial", "obs_summary": None,
        }
        (tmp_path / "jobs" / "drop_2d_old.json").write_text(json.dumps(old))
        assert main(["status", "--out", str(tmp_path),
                     "--assert-succeeded"]) == 0
        rows = {line.split()[0]: line.split()
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("drop_2d")}
        assert rows["drop_2d_old"][5] == "7"
        assert rows["drop_2d"][5] == str(new.counts["newton"])
        assert main(["report", "--out", str(tmp_path)]) == 0
        family = json.loads(capsys.readouterr().out)["families"]["drop"]
        assert family["jobs"] == 2 and family["steps"] == 2 + new.steps_done
        assert family["newton"] == 7 + new.counts["newton"]
        assert family["ch_linear"] == 11 + new.counts["ch_linear"]
        assert family["line_search_trials"] == (
            8 + new.counts["line_search_trials"])
        # counts the old record predates: the new record's alone
        assert family["ch_fallbacks"] == new.counts["ch_fallbacks"] == 0
        assert family["krylov_vu"] == new.counts["krylov_vu"]


@pytest.mark.parametrize("name", ["drop_2d", "rising_bubble_2d"])
def test_record_and_report_carry_every_count(tmp_path, capsys, monkeypatch,
                                             name):
    """For a CH-only and a coupled job, succeeded, failed and interrupted:
    the record's ``counts`` is the stepper's ``iteration_counts`` as the job
    ended, and each ``report`` family row has every count in it."""
    steppers = []
    make_stepper = runner._make_stepper

    def recording(*args):
        steppers.append(make_stepper(*args))
        return steppers[-1]

    monkeypatch.setattr(runner, "_make_stepper", recording)
    store = ResultsStore(str(tmp_path))
    for how in ("succeeded", "failed", "interrupted"):
        cfg = build(name, quick=True)
        cfg.family = how  # one report row per record
        kwargs = {"interrupt_after_step": 1} if how == "interrupted" else {}
        with monkeypatch.context() as m:
            if how == "failed":
                newton_never_converges(m)
            res = run_scenario(cfg, job_id=how, **kwargs)
        assert res.status == how
        names = set(steppers[-1].iteration_counts)
        assert res.counts == steppers[-1].iteration_counts
        assert {"krylov_ns", "krylov_pp", "krylov_vu", "krylov_unconverged",
                "ch_fallbacks", "ns_fallbacks", "pp_fallbacks"} <= names
        store.write_job(res)
    assert main(["report", "--out", str(tmp_path)]) == 0
    families = json.loads(capsys.readouterr().out)["families"]
    assert set(families) == {"succeeded", "failed", "interrupted"}
    for row in families.values():
        assert names <= set(row)
