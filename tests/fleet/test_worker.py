"""FleetWorker: drain the queue, match the serial registry, survive crashes."""

import json

import pytest

from repro.fleet import FleetCoordinator, FleetWorker, WorkQueue, load_campaign_spec
from repro.fleet.worker import format_worker_error
from repro.machines.presets import get_preset
from repro.store import Campaign, CampaignSpec, PlanRegistry, TrialDB
from repro.util.clock import ManualClock

SPEC = CampaignSpec(
    name="fleet-test",
    machines=("intel", "amd"),
    distributions=("unbiased",),
    levels=(3, 4),
    instances=1,
    seed=3,
)


def enqueue(db: TrialDB, spec: CampaignSpec = SPEC) -> FleetCoordinator:
    coord = FleetCoordinator(db, spec.name)
    coord.enqueue(spec)
    return coord


class TestLoadCampaignSpec:
    def test_roundtrips_the_enqueued_spec(self):
        db = TrialDB(":memory:")
        enqueue(db)
        assert load_campaign_spec(db, "fleet-test") == SPEC

    def test_missing_campaign_raises(self):
        db = TrialDB(":memory:")
        with pytest.raises(ValueError, match="no stored spec"):
            load_campaign_spec(db, "never-enqueued")


class TestDrain:
    def test_single_worker_drains_the_campaign(self):
        db = TrialDB(":memory:")
        enqueue(db)
        worker = FleetWorker(db, "fleet-test", worker_id="w1")
        results = worker.run()
        assert len(results) == 4
        assert all(r.source == "tuned" for r in results)
        queue = WorkQueue(db, "fleet-test")
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 4, "poisoned": 0}
        assert all(c["worker_id"] == "w1" for c in queue.cells())
        db.close()

    def test_registry_is_byte_identical_to_serial_run(self):
        """The acceptance invariant: a fleet-drained registry equals the
        serial Campaign.run() registry exactly, plan bytes included."""
        serial_db = TrialDB(":memory:")
        Campaign(SPEC, serial_db).run()
        serial = PlanRegistry(serial_db).contents()

        fleet_db = TrialDB(":memory:")
        enqueue(fleet_db)
        FleetWorker(fleet_db, "fleet-test", worker_id="w1").run()
        fleet = PlanRegistry(fleet_db).contents()

        assert fleet == serial
        serial_db.close()
        fleet_db.close()

    def test_max_cells_bounds_the_loop(self):
        db = TrialDB(":memory:")
        enqueue(db)
        results = FleetWorker(db, "fleet-test", worker_id="w1").run(max_cells=2)
        assert len(results) == 2
        assert WorkQueue(db, "fleet-test").counts()["done"] == 2
        db.close()

    def test_machine_filter_restricts_claims(self):
        db = TrialDB(":memory:")
        enqueue(db)
        worker = FleetWorker(
            db, "fleet-test", worker_id="w1", machines=("amd",)
        )
        results = worker.run(wait_for_leased=False)
        assert {r.machine for r in results} == {"amd"}
        counts = WorkQueue(db, "fleet-test").counts()
        assert counts["done"] == 2
        assert counts["pending"] == 2
        db.close()

    def test_worker_records_telemetry(self):
        db = TrialDB(":memory:")
        enqueue(db)
        worker = FleetWorker(db, "fleet-test", worker_id="w1")
        worker.run()
        telemetry = worker.telemetry
        assert telemetry.counter("cells_done") == 4
        assert telemetry.counter("lease_renewals") == 4
        assert telemetry.counter("cells_failed") == 0
        assert telemetry.gauge("cells_per_second") > 0
        db.close()

    def test_default_worker_id_is_host_pid(self):
        db = TrialDB(":memory:")
        enqueue(db)
        worker = FleetWorker(db, "fleet-test")
        assert ":" in worker.worker_id
        db.close()


class TestCrashRecovery:
    def test_survivor_reclaims_dead_workers_cells(self):
        """Simulated crash: a 'dead' worker claims cells and never
        completes them; once its leases expire a survivor sharing the
        same clock re-claims and finishes every cell."""
        db = TrialDB(":memory:")
        enqueue(db)
        clock = ManualClock()
        # The dead worker grabs half the campaign and vanishes.
        dead = WorkQueue(db, "fleet-test", clock=clock, lease_ttl=30.0)
        stranded = dead.claim("dead-worker", limit=2)
        assert len(stranded) == 2

        survivor = FleetWorker(
            db, "fleet-test", worker_id="survivor", clock=clock, lease_ttl=30.0
        )
        # ManualClock.sleep advances time, so the survivor's idle wait
        # walks the clock past the dead worker's lease expiry.
        results = survivor.run()
        assert len(results) == 4
        cells = WorkQueue(db, "fleet-test").cells()
        assert all(c["status"] == "done" for c in cells)
        assert all(c["worker_id"] == "survivor" for c in cells)
        reclaimed = [c for c in cells if c["attempts"] == 2]
        assert len(reclaimed) == 2  # the stranded cells, exactly once each
        assert survivor.telemetry.counter("cells_reclaimed") == 2
        assert survivor.telemetry.counter("idle_waits") > 0
        db.close()

    def test_wait_for_leased_false_exits_with_foreign_leases_live(self):
        db = TrialDB(":memory:")
        enqueue(db)
        clock = ManualClock()
        WorkQueue(db, "fleet-test", clock=clock, lease_ttl=30.0).claim(
            "dead-worker", limit=2
        )
        worker = FleetWorker(
            db, "fleet-test", worker_id="w1", clock=clock, lease_ttl=30.0
        )
        results = worker.run(wait_for_leased=False)
        assert len(results) == 2  # only the cells that were still pending
        assert WorkQueue(db, "fleet-test").counts()["leased"] == 2
        db.close()

    def test_stop_exits_after_inflight_cell(self):
        db = TrialDB(":memory:")
        enqueue(db)
        worker = FleetWorker(db, "fleet-test", worker_id="w1")
        worker.stop()
        assert worker.run() == []
        db.close()


class TestFormatWorkerError:
    def test_payload_is_structured_json(self):
        try:
            raise ValueError("bad preset")
        except ValueError as exc:
            payload = format_worker_error(exc)
        doc = json.loads(payload)
        assert doc["type"] == "ValueError"
        assert doc["message"] == "bad preset"
        assert "Traceback (most recent call last)" in doc["traceback"]
        assert "raise ValueError" in doc["traceback"]
        # readable as the old "Type: message" style too
        assert "ValueError" in payload and "bad preset" in payload

    def test_traceback_is_tail_bounded(self):
        def recurse(n):
            if n == 0:
                raise RuntimeError("bottom")
            recurse(n - 1)

        try:
            recurse(200)
        except RuntimeError as exc:
            doc = json.loads(format_worker_error(exc, limit=100))
        assert doc["traceback"].startswith("...(truncated)...\n")
        assert len(doc["traceback"]) <= 100 + len("...(truncated)...\n")
        # the tail (the actual raise site) survives the truncation
        assert "bottom" in doc["traceback"]

    def test_message_is_bounded(self):
        try:
            raise RuntimeError("x" * 2000)
        except RuntimeError as exc:
            doc = json.loads(format_worker_error(exc))
        assert len(doc["message"]) == 503
        assert doc["message"].endswith("...")

    def test_poisoned_cell_stores_recoverable_structure(self):
        """The stored last_error round-trips: json.loads on the cell row
        recovers type + message + traceback."""
        db = TrialDB(":memory:")
        spec = CampaignSpec(
            name="fleet-test",
            machines=("no-such-machine",),
            distributions=("unbiased",),
            levels=(3,),
            instances=1,
            seed=3,
        )
        enqueue(db, spec)
        FleetWorker(db, "fleet-test", worker_id="w1", max_attempts=1).run()
        (cell,) = WorkQueue(db, "fleet-test").cells()
        assert cell["status"] == "poisoned"
        doc = json.loads(cell["last_error"])
        assert doc["type"] == "ValueError"
        assert "no-such-machine" in doc["message"]
        assert "Traceback" in doc["traceback"]
        db.close()


class TestFailurePath:
    def test_bad_cell_requeues_then_parks(self):
        """A cell whose machine preset does not exist fails every
        attempt: it is requeued max_attempts-1 times, then poisoned —
        and the rest of the campaign still completes."""
        db = TrialDB(":memory:")
        spec = CampaignSpec(
            name="fleet-test",
            machines=("intel", "no-such-machine"),
            distributions=("unbiased",),
            levels=(3,),
            instances=1,
            seed=3,
        )
        with pytest.raises(ValueError):
            get_preset("no-such-machine")  # the failure we rely on
        enqueue(db, spec)
        worker = FleetWorker(db, "fleet-test", worker_id="w1", max_attempts=3)
        results = worker.run()
        assert len(results) == 1  # only the intel cell tunes
        cells = WorkQueue(db, "fleet-test").cells()
        by_machine = {c["machine"]: c for c in cells}
        assert by_machine["intel"]["status"] == "done"
        poisoned = by_machine["no-such-machine"]
        assert poisoned["status"] == "poisoned"
        assert poisoned["attempts"] == 3
        assert "ValueError" in poisoned["last_error"]
        assert worker.telemetry.counter("cells_failed") == 3
        assert worker.telemetry.counter("cells_requeued") == 2
        assert worker.telemetry.counter("cells_poisoned") == 1
        db.close()

    def test_poisoned_cell_does_not_block_registry(self):
        db = TrialDB(":memory:")
        spec = CampaignSpec(
            name="fleet-test",
            machines=("intel", "no-such-machine"),
            distributions=("unbiased",),
            levels=(3,),
            instances=1,
            seed=3,
        )
        enqueue(db, spec)
        FleetWorker(db, "fleet-test", worker_id="w1").run()
        registry = PlanRegistry(db)
        hit = registry.get(
            get_preset("intel"), spec.key_for("unbiased", 3, spec.operators[0])
        )
        assert hit is not None
        db.close()


class TestHeartbeats:
    def test_heartbeat_row_is_written(self):
        db = TrialDB(":memory:")
        enqueue(db)
        profile = get_preset("intel")
        FleetWorker(
            db, "fleet-test", worker_id="w1", profile=profile
        ).run()
        row = db.conn.execute(
            "SELECT * FROM fleet_workers WHERE worker_id = 'w1'"
        ).fetchone()
        assert row is not None
        assert row["campaign"] == "fleet-test"
        assert row["cells_done"] == 4
        assert row["machine_fingerprint"] == profile.fingerprint()
        assert row["last_heartbeat"] >= row["started_at"]
        db.close()
