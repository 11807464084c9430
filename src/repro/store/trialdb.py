"""The trial database: a durable log of every tuning run.

PetaBricks tunes once and stores the configuration (section 3.2.1); this
module stores the *evidence* too.  Every call to the DP tuner can drop a
:class:`TrialRecord` here, giving the reproduction an experiment database
in the keyfields/resultfields style: the keyfields say what was tuned,
the resultfields say what the tuner chose and what it cost.

The database is a single SQLite file opened in WAL mode, so concurrent
solvers on one host can read plans while a campaign writes new trials.
"""

from __future__ import annotations

import csv
import json
import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from repro.store.retry import DEFAULT_RETRY, RetryPolicy, run_with_retry
from repro.store.schema import ensure_schema
from repro.util import format_table

__all__ = ["TrialDB", "TrialRecord", "canonical_accuracies", "canonical_seed"]

T = TypeVar("T")

#: Keyfield column order shared by queries and the run-table export.
KEYFIELDS = (
    "kind",
    "distribution",
    "operator",
    "ndim",
    "backend",
    "max_level",
    "accuracies",
    "machine_fingerprint",
    "seed",
    "instances",
)
RESULTFIELDS = (
    "machine_name",
    "cycle_shape",
    "simulated_cost",
    "wall_seconds",
    "provenance",
    "tuner",
)


def canonical_accuracies(accuracies: Sequence[float]) -> str:
    """Canonical text form of an accuracy ladder (a stable keyfield)."""
    return json.dumps([float(a) for a in accuracies], separators=(",", ":"))


def canonical_seed(seed: int | None) -> str:
    """Canonical text form of a training seed (``None`` is a valid seed,
    and SQLite NULLs never compare equal, so seeds are stored as text)."""
    return json.dumps(seed)


@dataclass(frozen=True)
class TrialRecord:
    """One tuning run: keyfields identify it, resultfields describe it."""

    kind: str
    distribution: str
    max_level: int
    accuracies: tuple[float, ...]
    machine_fingerprint: str
    seed: int | None
    instances: int
    #: canonical operator spec string (the pre-operator-layer default)
    operator: str = "poisson"
    #: grid dimensionality (2-D is the pre-3-D implicit default)
    ndim: int = 2
    #: kernel backend the tune priced ('numpy' is the pre-backend default)
    backend: str = "numpy"
    machine_name: str | None = None
    cycle_shape: str | None = None
    simulated_cost: float | None = None
    wall_seconds: float | None = None
    plan_json: str | None = None
    #: structured who-ran-this metadata as canonical JSON (worker id,
    #: host, pid, attempt, duration) — see ``registry.build_provenance``
    provenance: str | None = None
    #: which search produced the plan: 'dp' (exhaustive) or 'model'
    #: (learned-cost-model BO) — provenance, not part of the cell key
    tuner: str = "dp"
    trial_id: int | None = field(default=None, compare=False)
    created_at: str | None = field(default=None, compare=False)

    def key(self) -> tuple:
        """The keyfield tuple (what makes two trials 'the same' cell)."""
        return (
            self.kind,
            self.distribution,
            self.operator,
            self.ndim,
            self.backend,
            self.max_level,
            canonical_accuracies(self.accuracies),
            self.machine_fingerprint,
            canonical_seed(self.seed),
            self.instances,
        )


class TrialDB:
    """SQLite-backed trial log (WAL mode) plus the registry/campaign tables.

    Accepts a filesystem path or ``":memory:"``; usable as a context
    manager.  All store components (:class:`~repro.store.registry.
    PlanRegistry`, :class:`~repro.store.campaign.Campaign`) share one
    ``TrialDB`` and therefore one database file.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        busy_timeout: float = 30.0,
        retry: RetryPolicy = DEFAULT_RETRY,
    ) -> None:
        self.path = str(path)
        self.retry = retry
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # The connection may cross threads: the solve server's workers
        # and background tuner share one registry, and an in-memory
        # store is per-connection, so per-thread connections cannot
        # work.  `self.lock` serializes every statement-to-commit
        # sequence (TrialDB's own methods and PlanRegistry's take it),
        # so concurrent threads cannot interleave half-built
        # transactions; it is reentrant so composed operations
        # (get_or_tune -> put -> record) nest freely.
        self.lock = threading.RLock()
        self.conn = sqlite3.connect(self.path, check_same_thread=False)
        self.conn.row_factory = sqlite3.Row
        if self.path != ":memory:":
            self.conn.execute("PRAGMA journal_mode=WAL")
            self.conn.execute("PRAGMA synchronous=NORMAL")
            # Parallel campaigns and fleet workers run one writer
            # process per in-flight cell; WAL serializes the commits,
            # and the busy timeout makes lock waits block instead of
            # failing.  Waits past the timeout surface as `database is
            # locked` and are absorbed by :meth:`write`'s bounded
            # exponential-backoff retries.
            self.conn.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
        ensure_schema(self.conn)

    # -- write path -------------------------------------------------------

    def write(self, fn: Callable[[sqlite3.Connection], T]) -> T:
        """Run a write transaction with locked-database retries.

        ``fn`` receives the connection under the store lock and must
        leave it committed; on ``sqlite3.OperationalError`` the
        half-built transaction is rolled back and, for lock contention,
        retried with exponential backoff per ``self.retry``.  Every
        TrialDB/PlanRegistry/WorkQueue write path funnels through here,
        so one policy governs the whole store.
        """

        def attempt() -> T:
            with self.lock:
                try:
                    return fn(self.conn)
                except sqlite3.OperationalError:
                    self.conn.rollback()
                    raise

        return run_with_retry(attempt, self.retry)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "TrialDB":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- trials -----------------------------------------------------------

    def record_trial(self, record: TrialRecord) -> int:
        """Append one trial row; returns its id."""

        def insert(conn: sqlite3.Connection) -> int:
            cur = conn.execute(
                """
                INSERT INTO trials (kind, distribution, operator, ndim, backend,
                                    max_level, accuracies, machine_fingerprint,
                                    seed, instances, machine_name, cycle_shape,
                                    simulated_cost, wall_seconds, provenance,
                                    tuner, plan_json)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                record.key()
                + (
                    record.machine_name,
                    record.cycle_shape,
                    record.simulated_cost,
                    record.wall_seconds,
                    record.provenance,
                    record.tuner,
                    record.plan_json,
                ),
            )
            conn.commit()
            return int(cur.lastrowid)

        return self.write(insert)

    def trials(
        self,
        kind: str | None = None,
        distribution: str | None = None,
        machine_fingerprint: str | None = None,
        max_level: int | None = None,
        operator: str | None = None,
        ndim: int | None = None,
        backend: str | None = None,
    ) -> list[TrialRecord]:
        """Trial records matching the given keyfield filters, oldest first.

        ``operator`` accepts any spelling of a spec; it is normalized to
        the canonical form rows are stored under.
        """
        if operator is not None:
            from repro.operators.spec import parse_operator

            operator = parse_operator(operator).canonical()
        clauses, params = _filters(
            kind=kind,
            distribution=distribution,
            machine_fingerprint=machine_fingerprint,
            max_level=max_level,
            operator=operator,
            ndim=ndim,
            backend=backend,
        )
        with self.lock:
            rows = self.conn.execute(
                f"SELECT * FROM trials{clauses} ORDER BY id", params
            ).fetchall()
        return [_record_from_row(row) for row in rows]

    def count_trials(self) -> int:
        with self.lock:
            (n,) = self.conn.execute("SELECT COUNT(*) FROM trials").fetchone()
        return int(n)

    # -- run-table export -------------------------------------------------

    def run_table_rows(self) -> tuple[list[str], list[list[Any]]]:
        """(headers, rows) of the keyfields/resultfields run table."""
        headers = list(KEYFIELDS) + list(RESULTFIELDS) + ["created_at"]
        rows = []
        with self.lock:
            fetched = self.conn.execute(
                f"SELECT {', '.join(headers)} FROM trials ORDER BY id"
            ).fetchall()
        for row in fetched:
            rows.append([row[h] for h in headers])
        return headers, rows

    def format_run_table(self) -> str:
        """The run table as an aligned text table."""
        headers, rows = self.run_table_rows()
        if not rows:
            return "(no trials recorded)"
        display = [[_short(cell) for cell in row] for row in rows]
        return format_table(headers, display)

    def export_csv(self, path: str | Path) -> int:
        """Write the run table as CSV; returns the number of data rows."""
        headers, rows = self.run_table_rows()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            writer.writerows(rows)
        return len(rows)

    # -- maintenance ------------------------------------------------------

    def gc(self) -> dict[str, int]:
        """Compact the store.

        Deletes superseded trials (older rows sharing the keyfields of a
        newer one) and campaign cells left mid-flight, then VACUUMs.
        Returns counts of what was removed.
        """
        def compact(conn: sqlite3.Connection) -> dict[str, int]:
            cur = conn.execute(
                f"""
                DELETE FROM trials WHERE id NOT IN (
                    SELECT MAX(id) FROM trials GROUP BY {', '.join(KEYFIELDS)}
                )
                """
            )
            removed_trials = cur.rowcount
            cur = conn.execute("DELETE FROM campaign_cells WHERE status != 'done'")
            removed_cells = cur.rowcount
            conn.commit()
            conn.execute("VACUUM")
            return {"trials": removed_trials, "campaign_cells": removed_cells}

        return self.write(compact)


def _filters(**kwargs: Any) -> tuple[str, list[Any]]:
    clauses = [f"{name} = ?" for name, value in kwargs.items() if value is not None]
    params = [value for value in kwargs.values() if value is not None]
    return (" WHERE " + " AND ".join(clauses)) if clauses else "", params


def _record_from_row(row: sqlite3.Row) -> TrialRecord:
    return TrialRecord(
        kind=row["kind"],
        distribution=row["distribution"],
        operator=row["operator"],
        ndim=int(row["ndim"]),
        max_level=int(row["max_level"]),
        accuracies=tuple(json.loads(row["accuracies"])),
        backend=row["backend"],
        machine_fingerprint=row["machine_fingerprint"],
        seed=json.loads(row["seed"]),
        instances=int(row["instances"]),
        machine_name=row["machine_name"],
        cycle_shape=row["cycle_shape"],
        simulated_cost=row["simulated_cost"],
        wall_seconds=row["wall_seconds"],
        plan_json=row["plan_json"],
        provenance=row["provenance"],
        tuner=row["tuner"],
        trial_id=int(row["id"]),
        created_at=row["created_at"],
    )


def _short(cell: Any, limit: int = 40) -> str:
    if isinstance(cell, float):
        return f"{cell:.3e}"
    text = "-" if cell is None else str(cell)
    return text if len(text) <= limit else text[: limit - 3] + "..."
