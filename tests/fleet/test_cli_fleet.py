"""`repro-mg fleet {enqueue,work,status,export}` end-to-end via cli.main."""

import csv
import json

import pytest

from repro.cli import main
from repro.store import PlanRegistry, TrialDB

GRID = [
    "--campaign", "cli-fleet",
    "--machine", "intel",
    "--machine", "amd",
    "--max-level", "3",
    "--instances", "1",
    "--seed", "3",
]


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "store.sqlite")


def test_enqueue_then_work_then_status_then_export(db_path, tmp_path, capsys):
    assert main(["fleet", "--db", db_path, "enqueue", *GRID]) == 0
    out = capsys.readouterr().out
    assert "2 cells in grid" in out
    assert "2 open for workers" in out

    assert (
        main(
            [
                "fleet", "--db", db_path, "work",
                "--campaign", "cli-fleet",
                "--worker-id", "cli-w1",
                "--no-wait",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "pulling from 'cli-fleet'" in out
    assert "2 done, 0 failed" in out

    assert main(["fleet", "--db", db_path, "status", "--campaign", "cli-fleet"]) == 0
    out = capsys.readouterr().out
    assert "2 done" in out
    assert "cli-w1" in out

    csv_path = str(tmp_path / "run_table.csv")
    assert (
        main(
            [
                "fleet", "--db", db_path, "export",
                "--campaign", "cli-fleet",
                "--csv", csv_path,
            ]
        )
        == 0
    )
    assert "wrote 2 cell rows" in capsys.readouterr().out
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["worker_id"] == "cli-w1" for r in rows)
    assert all(r["status"] == "done" for r in rows)

    db = TrialDB(db_path)
    assert len(PlanRegistry(db).contents()) == 2
    db.close()


def test_enqueue_is_idempotent_from_cli(db_path, capsys):
    assert main(["fleet", "--db", db_path, "enqueue", *GRID]) == 0
    assert main(["fleet", "--db", db_path, "enqueue", *GRID]) == 0
    out = capsys.readouterr().out
    assert out.count("2 open for workers") == 2


def test_status_json(db_path, capsys):
    main(["fleet", "--db", db_path, "enqueue", *GRID])
    capsys.readouterr()
    assert (
        main(["fleet", "--db", db_path, "status", "--campaign", "cli-fleet", "--json"])
        == 0
    )
    snap = json.loads(capsys.readouterr().out)
    assert snap["campaign"] == "cli-fleet"
    assert snap["cells"]["pending"] == 2
    assert snap["workers"] == []


def test_export_without_cells_prints_notice(db_path, capsys):
    assert main(["fleet", "--db", db_path, "export", "--campaign", "nothing"]) == 0
    assert "no cells enqueued" in capsys.readouterr().out


def test_export_table_to_stdout(db_path, capsys):
    main(["fleet", "--db", db_path, "enqueue", *GRID])
    capsys.readouterr()
    assert main(["fleet", "--db", db_path, "export", "--campaign", "cli-fleet"]) == 0
    out = capsys.readouterr().out
    assert "worker_id" in out
    assert "attempts" in out


def test_work_without_enqueue_fails_clearly(db_path):
    with pytest.raises(ValueError, match="no stored spec"):
        main(["fleet", "--db", db_path, "work", "--campaign", "ghost", "--no-wait"])


def test_enqueue_rejects_mismatched_ndim(db_path):
    with pytest.raises(SystemExit):
        main(
            [
                "fleet", "--db", db_path, "enqueue",
                "--campaign", "bad",
                "--operator", "poisson",
                "--ndim", "3",
            ]
        )


@pytest.mark.parametrize("name", ["numba", "bogus"])
def test_enqueue_rejects_unknown_backend(db_path, name, capsys):
    with pytest.raises(SystemExit) as err:
        main(["fleet", "--db", db_path, "enqueue", "--campaign", "bad", "--backend", name])
    assert err.value.code == 2
    assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_work_machine_filter(db_path, capsys):
    main(["fleet", "--db", db_path, "enqueue", *GRID])
    capsys.readouterr()
    assert (
        main(
            [
                "fleet", "--db", db_path, "work",
                "--campaign", "cli-fleet",
                "--worker-id", "amd-only",
                "--machine", "amd",
                "--no-wait",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "1 done" in out
    assert "amd" in out
    assert "intel" not in out
