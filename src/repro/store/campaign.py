"""Resumable autotuning campaigns over (machine x distribution x operator x level).

A campaign is a tuning sweep run ahead of traffic: every cell of the
grid gets a tuned plan into the registry, so later ``solve_service``
calls are all registry hits.  Cells are tracked in the
``campaign_cells`` table and committed one at a time, so a killed
campaign restarts exactly where it stopped — completed cells are
skipped, never re-tuned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.machines.presets import get_preset
from repro.operators.spec import parse_operator
from repro.store.registry import PlanRegistry, RegistryHit, TuneKey
from repro.store.trialdb import TrialDB
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.util import format_table

__all__ = ["Campaign", "CampaignSpec", "CellResult", "execute_cell", "tune_cell"]

#: One grid cell: (machine, distribution, operator, max_level).
Cell = tuple[str, str, str, int]


@dataclass(frozen=True)
class CampaignSpec:
    """The grid one campaign sweeps, plus shared tuning keyfields."""

    name: str
    machines: tuple[str, ...] = ("intel", "amd", "sun")
    distributions: tuple[str, ...] = ("unbiased",)
    levels: tuple[int, ...] = (4, 5)
    #: canonical operator spec strings (normalized on construction)
    operators: tuple[str, ...] = ("poisson",)
    kind: str = "multigrid-v"
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES
    seed: int | None = 0
    instances: int = 2
    #: kernel backend every cell's tune prices against (spec-level, not a
    #: grid axis).  Kept verbatim — ``"auto"`` stays ``"auto"`` in the
    #: stored spec so each fleet worker resolves it against its *own*
    #: backend availability when it builds the cell's TuneKey.
    backend: str = "numpy"
    #: campaigns pre-warm the registry per machine, so by default a cell
    #: is only satisfied by that machine's own plan (no nearest fallback)
    allow_nearest: bool = False
    #: which search cold cells run: 'dp' (exhaustive) or 'model' (the
    #: budgeted BO search warm-started from the store's trials)
    tuner: str = "dp"

    def __post_init__(self) -> None:
        normalized = tuple(parse_operator(op).canonical() for op in self.operators)
        object.__setattr__(self, "operators", normalized)
        if self.tuner not in ("dp", "model"):
            raise ValueError(f"unknown tuner {self.tuner!r}; use 'dp' or 'model'")

    def cells(self) -> list[Cell]:
        """Deterministic cell order: machine-major, then distribution,
        then operator, then level."""
        return list(
            product(self.machines, self.distributions, self.operators, self.levels)
        )

    def key_for(self, distribution: str, level: int, operator: str) -> TuneKey:
        return TuneKey(
            kind=self.kind,
            distribution=distribution,
            max_level=level,
            accuracies=self.accuracies,
            seed=self.seed,
            instances=self.instances,
            operator=operator,
            backend=self.backend,
        )

    # -- persistence (fleet workers rebuild specs from the store) ---------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, stored in the ``campaigns`` table so fleet
        workers can rebuild tuning keys from bare cell rows."""
        return {
            "name": self.name,
            "machines": list(self.machines),
            "distributions": list(self.distributions),
            "levels": list(self.levels),
            "operators": list(self.operators),
            "kind": self.kind,
            "accuracies": list(self.accuracies),
            "seed": self.seed,
            "instances": self.instances,
            "backend": self.backend,
            "allow_nearest": self.allow_nearest,
            "tuner": self.tuner,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        return cls(
            name=data["name"],
            machines=tuple(data["machines"]),
            distributions=tuple(data["distributions"]),
            levels=tuple(int(level) for level in data["levels"]),
            operators=tuple(data["operators"]),
            kind=data["kind"],
            accuracies=tuple(float(a) for a in data["accuracies"]),
            seed=data["seed"],
            instances=int(data["instances"]),
            backend=str(data.get("backend", "numpy")),
            allow_nearest=bool(data.get("allow_nearest", False)),
            tuner=str(data.get("tuner", "dp")),
        )


@dataclass(frozen=True)
class CellResult:
    """Outcome of one campaign cell in one ``run()`` call."""

    machine: str
    distribution: str
    operator: str
    max_level: int
    #: 'exact' / 'nearest' / 'tuned' from the registry, or 'skipped'
    #: for cells already done before this run
    source: str
    simulated_cost: float | None = None
    wall_seconds: float | None = None
    hit: RegistryHit | None = field(default=None, compare=False)


def tune_cell(
    registry: PlanRegistry,
    spec: CampaignSpec,
    machine: str,
    distribution: str,
    operator: str,
    max_level: int,
    worker_id: str | None = None,
    attempt: int = 1,
) -> CellResult:
    """Tune (or fetch) one campaign cell *without* touching its row.

    The plan and trial rows commit inside ``get_or_tune`` with
    structured provenance (which worker/host ran the tune, attempt
    number, duration); marking the cell done is the caller's job —
    :func:`execute_cell` commits it unconditionally, while the fleet's
    :class:`~repro.fleet.queue.WorkQueue` commits it under a
    lease-ownership guard.
    """
    from repro.store.registry import build_provenance

    profile = get_preset(machine)
    start = time.perf_counter()
    hit = registry.get_or_tune(
        profile,
        spec.key_for(distribution, max_level, operator),
        allow_nearest=spec.allow_nearest,
        tuner=spec.tuner,
        provenance=build_provenance(
            worker=worker_id, attempt=attempt, tuner=spec.tuner
        ),
    )
    wall = time.perf_counter() - start
    cost = hit.plan.time_on(profile, max_level, hit.plan.num_accuracies - 1)
    return CellResult(
        machine, distribution, operator, max_level, hit.source, cost, wall, hit=hit
    )


def execute_cell(
    registry: PlanRegistry,
    spec: CampaignSpec,
    machine: str,
    distribution: str,
    operator: str,
    max_level: int,
    worker_id: str | None = None,
    attempt: int = 1,
) -> CellResult:
    """Tune (or fetch) one campaign cell and mark it done.

    The plan and trial rows commit inside ``get_or_tune``; the cell's
    completion then commits as its own atomic transaction, so a crash
    between the two leaves a resumable pending cell whose re-run is a
    cheap registry exact-hit.  Shared by the serial sweep and the
    parallel per-process workers (:mod:`repro.parallel.campaigns`).
    """
    result = tune_cell(
        registry, spec, machine, distribution, operator, max_level,
        worker_id=worker_id, attempt=attempt,
    )

    def commit_done(conn: Any) -> None:
        conn.execute(
            """
            UPDATE campaign_cells
            SET status = 'done', source = ?, simulated_cost = ?,
                wall_seconds = ?, worker_id = ?,
                completed_at = strftime('%Y-%m-%dT%H:%M:%fZ', 'now')
            WHERE campaign = ? AND machine = ? AND distribution = ?
              AND operator = ? AND max_level = ?
            """,
            (
                result.source,
                result.simulated_cost,
                result.wall_seconds,
                worker_id,
                spec.name,
                machine,
                distribution,
                operator,
                max_level,
            ),
        )
        conn.commit()

    registry.db.write(commit_done)
    return result


class Campaign:
    """Drives a :class:`CampaignSpec` through a :class:`PlanRegistry`."""

    def __init__(
        self,
        spec: CampaignSpec,
        db: PlanRegistry | TrialDB | str | Path = ":memory:",
    ) -> None:
        self.spec = spec
        if isinstance(db, PlanRegistry):
            self.registry = db
        elif isinstance(db, (TrialDB, str, Path)):
            self.registry = PlanRegistry(db)
        else:
            raise TypeError(
                f"db must be a PlanRegistry, TrialDB, or database path; got {db!r}"
            )
        self.db = self.registry.db
        self._ensure_cells()

    def _ensure_cells(self) -> None:
        from repro.operators.spec import parse_operator

        def insert_cells(conn: Any) -> None:
            for machine, dist, operator, level in self.spec.cells():
                conn.execute(
                    """
                    INSERT OR IGNORE INTO campaign_cells
                        (campaign, machine, distribution, operator, ndim,
                         backend, max_level)
                    VALUES (?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        self.spec.name,
                        machine,
                        dist,
                        operator,
                        parse_operator(operator).ndim,
                        self.spec.backend,
                        level,
                    ),
                )
            conn.commit()

        self.db.write(insert_cells)

    # -- status -----------------------------------------------------------

    def cells(self) -> list[dict[str, Any]]:
        rows = self.db.conn.execute(
            """
            SELECT machine, distribution, operator, ndim, max_level, status,
                   source, simulated_cost, wall_seconds, completed_at
            FROM campaign_cells WHERE campaign = ?
            ORDER BY machine, distribution, operator, max_level
            """,
            (self.spec.name,),
        ).fetchall()
        return [dict(row) for row in rows]

    def pending(self) -> list[Cell]:
        """Grid cells not yet completed, in sweep order."""
        done = {
            (c["machine"], c["distribution"], c["operator"], c["max_level"])
            for c in self.cells()
            if c["status"] == "done"
        }
        return [cell for cell in self.spec.cells() if cell not in done]

    def status(self) -> dict[str, int]:
        counts = {"done": 0, "pending": 0}
        for cell in self.cells():
            counts[cell["status"]] = counts.get(cell["status"], 0) + 1
        return counts

    # -- execution --------------------------------------------------------

    def run(
        self,
        max_cells: int | None = None,
        on_cell: Callable[[CellResult], None] | None = None,
        jobs: int | None = None,
    ) -> list[CellResult]:
        """Run the sweep, skipping completed cells.

        ``max_cells`` bounds how many *pending* cells this call executes
        (handy for incremental progress and for tests simulating an
        interruption); each completed cell commits immediately, so any
        interruption loses at most the in-flight cell(s).

        ``jobs`` > 1 fans pending cells across that many worker
        processes (file-backed stores only; each worker opens its own
        WAL connection).  Cells are independent tuning problems, so the
        resulting registry is identical to a serial run's — only the
        wall-clock changes.  With ``jobs`` > 1, ``on_cell`` fires in
        completion order and the cell results carry their registry hit
        back from the worker process.
        """
        if jobs is not None and jobs > 1:
            from repro.parallel.campaigns import run_cells_parallel

            return run_cells_parallel(
                self, jobs=jobs, max_cells=max_cells, on_cell=on_cell
            )
        results: list[CellResult] = []
        executed = 0
        pending = set(self.pending())
        for machine, dist, operator, level in self.spec.cells():
            if (machine, dist, operator, level) not in pending:
                results.append(
                    CellResult(machine, dist, operator, level, source="skipped")
                )
                continue
            if max_cells is not None and executed >= max_cells:
                break
            result = execute_cell(self.registry, self.spec, machine, dist, operator, level)
            results.append(result)
            executed += 1
            if on_cell is not None:
                on_cell(result)
        return results

    # -- reporting --------------------------------------------------------

    def run_table(self) -> str:
        """The campaign grid as an aligned text table."""
        headers = [
            "machine",
            "distribution",
            "operator",
            "level",
            "status",
            "source",
            "simulated_cost",
            "wall_seconds",
        ]
        rows: list[Sequence[object]] = []
        for cell in self.cells():
            rows.append(
                [
                    cell["machine"],
                    cell["distribution"],
                    cell["operator"],
                    cell["max_level"],
                    cell["status"],
                    cell["source"] or "-",
                    _fmt(cell["simulated_cost"]),
                    _fmt(cell["wall_seconds"]),
                ]
            )
        return format_table(headers, rows)


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.3e}"
