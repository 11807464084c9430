"""Tests for the ``repro-mg store`` CLI subcommands."""

import pytest

from repro.cli import main
from repro.store.trialdb import TrialDB


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "store.sqlite")


def tune_args(db_path, *extra):
    return [
        "store",
        "--db",
        db_path,
        "tune",
        "--machine",
        "intel",
        "--distribution",
        "unbiased",
        "--max-level",
        "3",
        "--instances",
        "1",
        "--seed",
        "3",
        *extra,
    ]


class TestStoreTune:
    def test_tune_then_resume(self, db_path, capsys):
        assert main(tune_args(db_path)) == 0
        out = capsys.readouterr().out
        assert "1 done, 0 pending" in out
        assert "tuned" in out
        # Second invocation resumes: nothing pending, no new cells run.
        assert main(tune_args(db_path)) == 0
        out = capsys.readouterr().out
        assert "0 cells this run" in out

    def test_max_cells_limits_run(self, db_path, capsys):
        args = tune_args(db_path, "--max-cells", "1")
        args[args.index("--max-level") + 1] = "3"
        args += ["--max-level", "4"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1 done, 1 pending" in out

    def test_jobs_runs_cells_in_parallel_workers(self, db_path, tmp_path, capsys):
        args = tune_args(db_path, "--jobs", "2", "--machine", "amd")
        args[args.index("--max-level") + 1] = "3"
        args += ["--max-level", "4"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 done, 0 pending" in out
        # The parallel run stores exactly what a serial run would.
        serial_db = str(tmp_path / "serial.sqlite")
        serial_args = tune_args(serial_db, "--machine", "amd")
        serial_args[serial_args.index("--max-level") + 1] = "3"
        serial_args += ["--max-level", "4"]
        assert main(serial_args) == 0
        from repro.store.registry import PlanRegistry

        parallel_contents = PlanRegistry(TrialDB(db_path)).contents()
        serial_contents = PlanRegistry(TrialDB(serial_db)).contents()
        assert parallel_contents == serial_contents
        assert len(parallel_contents) == 4


class TestStoreLsExportGc:
    def test_ls_empty_and_populated(self, db_path, capsys):
        assert main(["store", "--db", db_path, "ls"]) == 0
        assert "no plans" in capsys.readouterr().out
        main(tune_args(db_path))
        capsys.readouterr()
        assert main(["store", "--db", db_path, "ls"]) == 0
        out = capsys.readouterr().out
        assert "intel-harpertown" in out
        assert "hits" in out

    def test_ls_trials(self, db_path, capsys):
        main(tune_args(db_path))
        capsys.readouterr()
        assert main(["store", "--db", db_path, "ls", "--trials"]) == 0
        out = capsys.readouterr().out
        assert "machine_fingerprint" in out
        assert "mp-" in out

    def test_ls_operator_filter(self, db_path, capsys):
        main(tune_args(db_path))  # poisson
        main(tune_args(db_path, "--operator", "anisotropic(epsilon=0.02)"))
        capsys.readouterr()
        # Any spelling of the spec is normalized before filtering.
        assert main(
            ["store", "--db", db_path, "ls", "--operator", "anisotropic(epsilon=2e-2)"]
        ) == 0
        out = capsys.readouterr().out
        assert "anisotropic(epsilon=0.02)" in out
        assert out.count("multigrid-v") == 1  # poisson row filtered out
        assert main(
            ["store", "--db", db_path, "ls", "--operator", "varcoeff"]
        ) == 0
        assert "no plans stored for operator" in capsys.readouterr().out

    def test_ls_trials_operator_filter(self, db_path, capsys):
        main(tune_args(db_path))
        main(tune_args(db_path, "--operator", "anisotropic(epsilon=0.02)"))
        capsys.readouterr()
        assert main(
            ["store", "--db", db_path, "ls", "--trials", "--operator", "poisson"]
        ) == 0
        out = capsys.readouterr().out
        assert "poisson" in out
        assert "anisotropic" not in out

    def test_export_stdout_and_csv(self, db_path, tmp_path, capsys):
        main(tune_args(db_path))
        capsys.readouterr()
        assert main(["store", "--db", db_path, "export"]) == 0
        assert "multigrid-v" in capsys.readouterr().out
        csv_path = str(tmp_path / "runs.csv")
        assert main(["store", "--db", db_path, "export", "--csv", csv_path]) == 0
        assert "wrote 1 trial rows" in capsys.readouterr().out

    def test_gc(self, db_path, capsys):
        main(tune_args(db_path))
        # Duplicate the trial row so gc has something to collect.
        db = TrialDB(db_path)
        (trial,) = db.trials()
        db.record_trial(trial)
        db.close()
        capsys.readouterr()
        assert main(["store", "--db", db_path, "gc"]) == 0
        assert "removed 1 superseded trial" in capsys.readouterr().out


class TestStoreParser:
    def test_unknown_subcommand_exits(self, db_path):
        with pytest.raises(SystemExit):
            main(["store", "--db", db_path, "frobnicate"])

    @pytest.mark.parametrize("name", ["numba", "bogus"])
    def test_unknown_backend_is_a_usage_error(self, db_path, name, capsys):
        with pytest.raises(SystemExit) as err:
            main(tune_args(db_path, "--backend", name))
        assert err.value.code == 2  # argparse usage error, no traceback
        assert f"invalid choice: '{name}'" in capsys.readouterr().err
