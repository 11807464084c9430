"""The fleet coordinator: enqueue campaigns, watch workers, export runs.

The coordinator is the control-plane view of one campaign: it seeds the
work queue (cells + the stored :class:`CampaignSpec` workers rebuild
tuning keys from), tracks worker heartbeats, sums them into fleet-wide
totals (cells/sec, renewals, requeues) and the expired leases it has
released in :meth:`FleetCoordinator.status`, and exports the campaign as a
``run_table.csv`` whose rows carry per-cell provenance: which worker
completed the cell, after how many attempts, in how much wall-clock.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from repro.fleet.queue import WorkQueue
from repro.store.campaign import Campaign, CampaignSpec
from repro.store.trialdb import TrialDB
from repro.util import format_table
from repro.util.clock import WALL_CLOCK, Clock

__all__ = ["FleetCoordinator", "RUN_TABLE_COLUMNS"]

#: run_table.csv column order: keyfields, outcome, then provenance.
RUN_TABLE_COLUMNS = (
    "campaign",
    "machine",
    "distribution",
    "operator",
    "ndim",
    "max_level",
    "status",
    "source",
    "simulated_cost",
    "wall_seconds",
    "worker_id",
    "attempts",
    "last_error",
    "completed_at",
)

#: A worker whose last heartbeat is older than this many seconds is
#: reported as stale (its leases will expire and be re-claimed).
DEFAULT_STALE_AFTER = 300.0


class FleetCoordinator:
    """Control plane for one campaign's distributed tuning run."""

    def __init__(
        self,
        db: TrialDB,
        campaign: str,
        clock: Clock = WALL_CLOCK,
        lease_ttl: float = 120.0,
        max_attempts: int = 3,
    ) -> None:
        self.db = db
        self.campaign = campaign
        self.clock = clock
        self.queue = WorkQueue(
            db, campaign, clock=clock, lease_ttl=lease_ttl,
            max_attempts=max_attempts,
        )
        #: expired leases :meth:`status` has released, over this
        #: coordinator's lifetime
        self.leases_released = 0

    # -- enqueue ----------------------------------------------------------

    def enqueue(self, spec: CampaignSpec) -> int:
        """Seed the queue: insert the campaign's cells and persist its
        spec so bare ``fleet work`` invocations can reconstruct tuning
        keys.  Idempotent — existing cells keep their status.  Returns
        the number of open (claimable) cells."""
        if spec.name != self.campaign:
            raise ValueError(
                f"spec is for campaign {spec.name!r}, coordinator drives "
                f"{self.campaign!r}"
            )
        Campaign(spec, self.db)  # creates any missing cells
        spec_json = json.dumps(spec.to_dict(), sort_keys=True)

        def upsert_spec(conn: Any) -> None:
            conn.execute(
                """
                INSERT INTO campaigns (name, spec_json) VALUES (?, ?)
                ON CONFLICT (name) DO UPDATE SET spec_json = excluded.spec_json
                """,
                (spec.name, spec_json),
            )
            conn.commit()

        self.db.write(upsert_spec)
        counts = self.queue.counts()
        return counts["pending"] + counts["leased"]

    # -- observation ------------------------------------------------------

    def workers(self, stale_after: float = DEFAULT_STALE_AFTER) -> list[dict[str, Any]]:
        """Heartbeat rows for this campaign's workers, freshest first."""
        with self.db.lock:
            rows = self.db.conn.execute(
                """
                SELECT worker_id, host, pid, machine_fingerprint, started_at,
                       last_heartbeat, cells_done, cells_failed,
                       lease_renewals, requeues_claimed
                FROM fleet_workers WHERE campaign = ?
                ORDER BY last_heartbeat DESC
                """,
                (self.campaign,),
            ).fetchall()
        now = self.clock.now()
        out = []
        for row in rows:
            worker = dict(row)
            age = now - row["last_heartbeat"]
            worker["heartbeat_age_s"] = age
            worker["stale"] = age > stale_after
            uptime = max(now - (row["started_at"] or now), 1e-9)
            worker["cells_per_second"] = row["cells_done"] / uptime
            out.append(worker)
        return out

    def status(self, stale_after: float = DEFAULT_STALE_AFTER) -> dict[str, Any]:
        """One JSON-ready snapshot: queue counts, workers, fleet totals.

        Expired leases are released first, so the counts reflect what a
        new worker would actually find claimable; ``leases_released`` is
        the running total of those releases.
        """
        self.leases_released += self.queue.release_expired()
        workers = self.workers(stale_after)
        totals = {
            "cells_done": sum(w["cells_done"] for w in workers),
            "cells_failed": sum(w["cells_failed"] for w in workers),
            "lease_renewals": sum(w["lease_renewals"] for w in workers),
            "requeues_claimed": sum(w["requeues_claimed"] for w in workers),
            "cells_per_second": sum(w["cells_per_second"] for w in workers),
        }
        return {
            "campaign": self.campaign,
            "cells": self.queue.counts(),
            "leases_released": self.leases_released,
            "workers": workers,
            "fleet": totals,
        }

    def format_status(self) -> str:
        """The status snapshot as aligned text tables (CLI output)."""
        snap = self.status()
        cells = snap["cells"]
        lines = [
            f"campaign {self.campaign!r}: "
            + ", ".join(f"{n} {s}" for s, n in cells.items())
            + f"; {snap['leases_released']} expired leases released"
        ]
        if snap["workers"]:
            headers = [
                "worker_id", "host", "cells_done", "cells_failed",
                "renewals", "reclaims", "cells/s", "heartbeat",
            ]
            rows = [
                [
                    w["worker_id"],
                    w["host"] or "-",
                    w["cells_done"],
                    w["cells_failed"],
                    w["lease_renewals"],
                    w["requeues_claimed"],
                    f"{w['cells_per_second']:.3f}",
                    ("stale" if w["stale"] else f"{w['heartbeat_age_s']:.0f}s ago"),
                ]
                for w in snap["workers"]
            ]
            lines.append(format_table(headers, rows))
        else:
            lines.append("(no workers have heartbeat yet)")
        return "\n".join(lines)

    # -- export -----------------------------------------------------------

    def run_table_rows(self) -> tuple[list[str], list[list[Any]]]:
        """(headers, rows) of the per-cell provenance run table."""
        headers = list(RUN_TABLE_COLUMNS)
        rows = []
        for cell in self.queue.cells():
            cell["campaign"] = self.campaign
            rows.append([cell[h] for h in headers])
        return headers, rows

    def export_run_table(self, path: str | Path) -> int:
        """Write ``run_table.csv`` — one row per cell with provenance
        (worker id, attempts, wall-clock, errors); returns the number of
        data rows."""
        headers, rows = self.run_table_rows()
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            writer.writerows(rows)
        return len(rows)
