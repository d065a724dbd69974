"""CLI tests: the verbs and exit codes the CI smoke job depends on."""

import json

import pytest

from repro.scenarios.cli import main
from repro.scenarios.registry import variants


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
            assert 0 < family["ch_factorizations"] <= family["newton"]
