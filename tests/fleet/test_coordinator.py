"""FleetCoordinator: enqueue, status/worker observation, run-table export."""

import csv

import pytest

from repro.fleet import FleetCoordinator, FleetWorker, WorkQueue
from repro.fleet.coordinator import RUN_TABLE_COLUMNS
from repro.store import CampaignSpec, TrialDB
from repro.util.clock import ManualClock

SPEC = CampaignSpec(
    name="coord",
    machines=("intel", "amd"),
    distributions=("unbiased",),
    levels=(3, 4),
    instances=1,
    seed=3,
)


@pytest.fixture()
def db():
    db = TrialDB(":memory:")
    yield db
    db.close()


class TestEnqueue:
    def test_enqueue_seeds_cells_and_spec(self, db):
        coord = FleetCoordinator(db, "coord")
        assert coord.enqueue(SPEC) == 4
        row = db.conn.execute(
            "SELECT spec_json FROM campaigns WHERE name = 'coord'"
        ).fetchone()
        assert row is not None
        assert '"machines": ["intel", "amd"]' in row["spec_json"]

    def test_enqueue_is_idempotent(self, db):
        coord = FleetCoordinator(db, "coord")
        coord.enqueue(SPEC)
        FleetWorker(db, "coord", worker_id="w1").run(max_cells=1)
        # Re-enqueueing must not reset the completed cell.
        assert coord.enqueue(SPEC) == 3
        assert coord.queue.counts()["done"] == 1

    def test_enqueue_updates_a_changed_spec(self, db):
        coord = FleetCoordinator(db, "coord")
        coord.enqueue(SPEC)
        wider = CampaignSpec(
            name="coord",
            machines=("intel", "amd", "sun"),
            distributions=("unbiased",),
            levels=(3, 4),
            instances=1,
            seed=3,
        )
        assert coord.enqueue(wider) == 6

    def test_enqueue_rejects_foreign_spec(self, db):
        coord = FleetCoordinator(db, "coord")
        with pytest.raises(ValueError, match="coordinator drives"):
            coord.enqueue(
                CampaignSpec(name="other", machines=("intel",), levels=(3,))
            )


class TestStatus:
    def test_status_snapshot_shape(self, db):
        coord = FleetCoordinator(db, "coord")
        coord.enqueue(SPEC)
        FleetWorker(db, "coord", worker_id="w1").run()
        snap = coord.status()
        assert snap["campaign"] == "coord"
        assert snap["cells"]["done"] == 4
        assert len(snap["workers"]) == 1
        assert snap["workers"][0]["worker_id"] == "w1"
        assert snap["fleet"]["cells_done"] == 4
        assert snap["fleet"]["cells_per_second"] > 0

    def test_status_releases_expired_leases(self, db):
        clock = ManualClock()
        coord = FleetCoordinator(db, "coord", clock=clock, lease_ttl=10.0)
        coord.enqueue(SPEC)
        WorkQueue(db, "coord", clock=clock, lease_ttl=10.0).claim(
            "dead", limit=2
        )
        clock.advance(10.0)
        snap = coord.status()
        assert snap["cells"]["pending"] == 4
        assert snap["cells"]["leased"] == 0
        assert snap["leases_released"] == 2
        assert coord.status()["leases_released"] == 2  # a running total

    def test_live_leases_are_not_counted_as_released(self, db):
        clock = ManualClock()
        coord = FleetCoordinator(db, "coord", clock=clock, lease_ttl=10.0)
        coord.enqueue(SPEC)
        WorkQueue(db, "coord", clock=clock, lease_ttl=10.0).claim(
            "alive", limit=2
        )
        clock.advance(5.0)
        snap = coord.status()
        assert snap["cells"]["leased"] == 2
        assert snap["leases_released"] == 0

    def test_format_status_reports_released_leases(self, db):
        clock = ManualClock()
        coord = FleetCoordinator(db, "coord", clock=clock, lease_ttl=10.0)
        coord.enqueue(SPEC)
        WorkQueue(db, "coord", clock=clock, lease_ttl=10.0).claim(
            "dead", limit=3
        )
        clock.advance(10.0)
        first_line = coord.format_status().splitlines()[0]
        assert "3 expired leases released" in first_line

    def test_stale_worker_flagged(self, db):
        clock = ManualClock()
        coord = FleetCoordinator(db, "coord", clock=clock)
        coord.enqueue(SPEC)
        FleetWorker(db, "coord", worker_id="w1", clock=clock).run(max_cells=1)
        clock.advance(600.0)
        workers = coord.workers(stale_after=300.0)
        assert workers[0]["stale"] is True
        assert workers[0]["heartbeat_age_s"] >= 600.0

    def test_format_status_renders_tables(self, db):
        coord = FleetCoordinator(db, "coord")
        coord.enqueue(SPEC)
        text = coord.format_status()
        assert "campaign 'coord'" in text
        assert "0 expired leases released" in text
        assert "no workers" in text
        FleetWorker(db, "coord", worker_id="w1").run()
        text = coord.format_status()
        assert "w1" in text
        assert "cells_done" in text


class TestExport:
    def test_run_table_has_provenance_columns(self, db):
        coord = FleetCoordinator(db, "coord")
        coord.enqueue(SPEC)
        FleetWorker(db, "coord", worker_id="w1").run()
        headers, rows = coord.run_table_rows()
        assert headers == list(RUN_TABLE_COLUMNS)
        assert len(rows) == 4
        by_header = [dict(zip(headers, row)) for row in rows]
        for cell in by_header:
            assert cell["status"] == "done"
            assert cell["worker_id"] == "w1"
            assert cell["attempts"] == 1
            assert cell["wall_seconds"] is not None
            assert cell["completed_at"] is not None

    def test_export_run_table_csv(self, db, tmp_path):
        coord = FleetCoordinator(db, "coord")
        coord.enqueue(SPEC)
        FleetWorker(db, "coord", worker_id="w1").run()
        path = tmp_path / "out" / "run_table.csv"
        assert coord.export_run_table(path) == 4
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert set(rows[0]) == set(RUN_TABLE_COLUMNS)
        assert {r["machine"] for r in rows} == {"intel", "amd"}
        assert all(r["worker_id"] == "w1" for r in rows)
