"""The fleet worker: pull a cell, tune it locally, push the result.

One ``FleetWorker`` is one machine's tuning capacity.  Its loop is the
py_experimenter worker loop over the campaign run table: claim an open
cell from the shared :class:`~repro.fleet.queue.WorkQueue`, run the
trial locally through the existing registry/tuner/executor stack
(``tune_cell`` — the same code path serial and parallel campaigns use,
so the resulting registry is byte-identical), and complete the lease.
Failures requeue the cell; the worker keeps going.

Workers are observable two ways: an in-process
:class:`~repro.serve.telemetry.Telemetry` (latency histograms for cell
wall time, counters for completions/renewals/requeues) for whoever owns
the worker object, and a heartbeat row in the shared store's
``fleet_workers`` table for the coordinator watching from outside.
"""

from __future__ import annotations

import json
import os
import socket
from typing import Any

from repro.fleet.queue import Lease, WorkQueue
from repro.machines.profile import MachineProfile
from repro.obs.runtime import get_tracer
from repro.serve.telemetry import Telemetry
from repro.store.campaign import CampaignSpec, CellResult, tune_cell
from repro.store.registry import PlanRegistry
from repro.store.trialdb import TrialDB
from repro.util.clock import WALL_CLOCK, Clock
from repro.util.errors import format_worker_error

__all__ = ["FleetWorker", "format_worker_error", "load_campaign_spec"]


def load_campaign_spec(db: TrialDB, name: str) -> CampaignSpec:
    """The :class:`CampaignSpec` enqueued under ``name``.

    Fleet workers start with nothing but a store path and a campaign
    name; the spec (kind, accuracy ladder, seed, instances) needed to
    rebuild tuning keys from bare cell rows comes from the
    ``campaigns`` table the coordinator filled at enqueue time.
    """
    import json

    with db.lock:
        row = db.conn.execute(
            "SELECT spec_json FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
    if row is None:
        raise ValueError(
            f"campaign {name!r} has no stored spec — enqueue it first "
            "(FleetCoordinator.enqueue or `repro-mg fleet enqueue`)"
        )
    return CampaignSpec.from_dict(json.loads(row["spec_json"]))


class FleetWorker:
    """Pulls open cells from a shared store and tunes them locally.

    ``worker_id`` must be unique across the fleet (default:
    ``host:pid``).  ``machines`` restricts which machine-axis cells this
    worker claims; ``profile`` names the hardware the worker itself runs
    on (recorded in heartbeats/provenance — cells carry their *target*
    machine preset, which is what plans are keyed by, so heterogeneous
    workers still fill one registry consistently).
    """

    def __init__(
        self,
        db: TrialDB,
        campaign: str,
        worker_id: str | None = None,
        spec: CampaignSpec | None = None,
        lease_ttl: float = 120.0,
        max_attempts: int = 3,
        clock: Clock = WALL_CLOCK,
        machines: tuple[str, ...] | None = None,
        profile: MachineProfile | None = None,
    ) -> None:
        self.db = db
        self.registry = PlanRegistry(db)
        self.spec = spec if spec is not None else load_campaign_spec(db, campaign)
        self.queue = WorkQueue(
            db, campaign, clock=clock, lease_ttl=lease_ttl,
            max_attempts=max_attempts,
        )
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.clock = clock
        self.machines = machines
        self.profile = profile
        self.telemetry = Telemetry()
        self._stopped = False
        self._started_at: float | None = None

    # -- lifecycle --------------------------------------------------------

    def stop(self) -> None:
        """Ask the loop to exit after the in-flight cell."""
        self._stopped = True

    def run(
        self,
        max_cells: int | None = None,
        wait_for_leased: bool = True,
    ) -> list[CellResult]:
        """Claim-and-tune until the campaign settles (or ``max_cells``).

        Returns the results of cells this worker completed.  An empty
        claim means every open cell is done, poisoned, or leased
        elsewhere.  With ``wait_for_leased`` (the default), the worker
        then waits for those foreign leases to resolve — completed by
        their holder, or expired and re-claimable here — so a killed
        peer's cells are picked up by survivors instead of stranded
        until the next launch.  ``wait_for_leased=False`` exits
        immediately (process supervisors that re-launch workers on a
        schedule don't need the wait).
        """
        self._started_at = self.clock.now()
        self._heartbeat()
        results: list[CellResult] = []
        while not self._stopped:
            if max_cells is not None and len(results) >= max_cells:
                break
            tracer = get_tracer()
            with tracer.span(
                "fleet.claim", worker=self.worker_id, campaign=self.queue.campaign
            ) as claim_span:
                leases = self.queue.claim(
                    self.worker_id, machines=self.machines
                )
                claim_span.set(claimed=len(leases))
            if not leases:
                if not wait_for_leased or not self._wait_for_foreign_leases():
                    break
                continue
            lease = leases[0]
            if lease.attempt > 1:
                self.telemetry.incr("cells_reclaimed")
            result = self._run_cell(lease)
            if result is not None:
                results.append(result)
            self._heartbeat()
        return results

    # -- one cell ---------------------------------------------------------

    def _run_cell(self, lease: Lease) -> CellResult | None:
        start = self.clock.now()
        tracer = get_tracer()
        cell_attrs = {
            "worker": self.worker_id,
            "campaign": self.queue.campaign,
            "machine": lease.machine,
            "distribution": lease.distribution,
            "operator": lease.operator,
            "max_level": lease.max_level,
            "attempt": lease.attempt,
        }
        try:
            with tracer.span("fleet.tune", **cell_attrs):
                result = tune_cell(
                    self.registry,
                    self.spec,
                    lease.machine,
                    lease.distribution,
                    lease.operator,
                    lease.max_level,
                    worker_id=self.worker_id,
                    attempt=lease.attempt,
                )
        except Exception as exc:  # noqa: BLE001 - a bad cell must not kill the loop
            disposition = self.queue.fail(lease, format_worker_error(exc))
            self.telemetry.incr("cells_failed")
            self.telemetry.incr(f"cells_{disposition}")
            if tracer.enabled:
                tracer.event(
                    "fleet.fail",
                    error=type(exc).__name__,
                    disposition=disposition,
                    **cell_attrs,
                )
            return None
        # The tune may have outlived the lease; renew before writing the
        # completion so a lost lease is detected instead of double-done.
        if not self.queue.renew(lease):
            self.telemetry.incr("leases_lost")
            return None
        self.telemetry.incr("lease_renewals")
        wall = self.clock.now() - start
        with tracer.span("fleet.commit", **cell_attrs) as commit_span:
            committed = self.queue.complete(
                lease, result.source, result.simulated_cost, result.wall_seconds
            )
            commit_span.set(committed=committed)
        if not committed:
            self.telemetry.incr("leases_lost")
            return None
        self.telemetry.incr("cells_done")
        self.telemetry.observe("cell_seconds", max(wall, 0.0))
        elapsed = max(self.clock.now() - (self._started_at or start), 1e-9)
        self.telemetry.set_gauge(
            "cells_per_second", self.telemetry.counter("cells_done") / elapsed
        )
        return result

    def _wait_for_foreign_leases(self) -> bool:
        """Sleep until another worker's lease can resolve; False = done.

        Called when a claim came back empty: if any cells are still
        leased to someone else, sleep until the earliest expiry (capped
        so completions are noticed promptly) and tell the loop to try
        again.  Returns ``False`` once nothing is leased — the campaign
        has settled and the loop can exit.
        """
        rows = self.queue.backend.rows(
            """
            SELECT MIN(lease_expires_at) AS next_expiry FROM campaign_cells
            WHERE campaign = ? AND status = 'leased'
            """,
            (self.queue.campaign,),
        )
        next_expiry = rows[0]["next_expiry"] if rows else None
        if next_expiry is None:
            return False
        self.telemetry.incr("idle_waits")
        wait = max(0.05, min(next_expiry - self.clock.now(), 1.0))
        self.clock.sleep(wait)
        return True

    # -- heartbeats -------------------------------------------------------

    def _heartbeat(self) -> None:
        """Upsert this worker's liveness row in the shared store."""
        fingerprint = self.profile.fingerprint() if self.profile else None
        payload = (
            self.queue.campaign,
            socket.gethostname(),
            os.getpid(),
            fingerprint,
            self._started_at,
            self.clock.now(),
            self.telemetry.counter("cells_done"),
            self.telemetry.counter("cells_failed"),
            self.telemetry.counter("lease_renewals"),
            self.telemetry.counter("cells_reclaimed"),
        )

        def upsert(conn: Any) -> None:
            conn.execute(
                """
                INSERT INTO fleet_workers
                    (worker_id, campaign, host, pid, machine_fingerprint,
                     started_at, last_heartbeat, cells_done, cells_failed,
                     lease_renewals, requeues_claimed)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (worker_id) DO UPDATE SET
                    campaign = excluded.campaign,
                    last_heartbeat = excluded.last_heartbeat,
                    cells_done = excluded.cells_done,
                    cells_failed = excluded.cells_failed,
                    lease_renewals = excluded.lease_renewals,
                    requeues_claimed = excluded.requeues_claimed
                """,
                (self.worker_id, *payload),
            )
            conn.commit()

        self.db.write(upsert)
