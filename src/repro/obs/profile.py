"""Per-(level, op, backend) wall-clock aggregation from executor spans.

The tuner's :class:`~repro.machines.meter.OpMeter` counts *how many* kernel
operations a plan charges; this profiler records *how long* they
actually took, keyed the same way the machine profile predicts them —
(level, op, backend).  Two consumers:

- the ROADMAP's learned-cost-model tuner, which needs measured
  (features -> seconds) rows, exactly what :meth:`SolveProfiler.rows`
  emits;
- a comparison no code makes yet: the measured per-op seconds set
  against a stored :class:`~repro.machines.profile.MachineProfile`'s
  prices could tell whether the machine has drifted since it was tuned
  (the sustainable-autotuning concern).

Thread-safe: executors in different worker threads record into one
profiler.  Recording is one lock acquire + two float adds, far off the
per-sweep hot path (it happens once per kernel *call*, not per point).
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["SolveProfiler"]


class SolveProfiler:
    """Aggregates measured seconds per (level, op, backend) cell."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: dict[tuple[int, str, str], list[float]] = {}

    def record(self, level: int, op: str, backend: str, seconds: float) -> None:
        key = (level, op, backend)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                self._cells[key] = [1.0, seconds]
            else:
                cell[0] += 1.0
                cell[1] += seconds

    def merge(self, other: "SolveProfiler") -> None:
        """Fold another profiler's cells into this one."""
        with other._lock:
            cells = {k: list(v) for k, v in other._cells.items()}
        with self._lock:
            for key, (count, total) in cells.items():
                cell = self._cells.get(key)
                if cell is None:
                    self._cells[key] = [count, total]
                else:
                    cell[0] += count
                    cell[1] += total

    # -- reading -----------------------------------------------------------

    def rows(self) -> list[dict[str, Any]]:
        """Measurement rows sorted by (level, op, backend).

        Each row: ``{level, op, backend, count, total_s, mean_s}`` —
        the training-row shape for a learned cost model.
        """
        with self._lock:
            items = sorted(self._cells.items())
        return [
            {
                "level": level,
                "op": op,
                "backend": backend,
                "count": int(count),
                "total_s": total,
                "mean_s": total / count if count else 0.0,
            }
            for (level, op, backend), (count, total) in items
        ]

    def to_training_rows(self, ndim: int = 2) -> list[dict[str, Any]]:
        """Measured (op, n) -> seconds rows in the cost-model vocabulary.

        Cells are recorded under base op family names (``relax``,
        ``direct``, ...); a learned cost model prices the meter
        vocabulary (``relax3d``, ``relax@cnative``, ...), so each cell is
        qualified here — by ``ndim`` and by its recorded backend — rather
        than making every consumer re-parse :meth:`rows` export text.
        Each row: ``{op, n, seconds, weight}`` where ``n`` is the grid
        side length of the cell's level, ``seconds`` the per-call mean,
        and ``weight`` the call count.  Cells whose mean rounds to zero
        (clock granularity) are dropped — they carry no timing signal.
        An empty profiler yields an empty list.
        """
        from repro.machines.meter import backend_op, dim_op

        with self._lock:
            items = sorted(self._cells.items())
        rows: list[dict[str, Any]] = []
        for (level, op, backend), (count, total) in items:
            if count <= 0 or total <= 0.0:
                continue
            if op == "direct":
                # The executor records direct solves under the sentinel
                # backend "direct"; the meter op is the bare direct op.
                qualified = dim_op("direct", ndim)
            else:
                qualified = backend_op(dim_op(op, ndim), backend)
            rows.append(
                {
                    "op": qualified,
                    "n": 2**level + 1,
                    "seconds": total / count,
                    "weight": count,
                }
            )
        return rows

    def total_seconds(self) -> float:
        with self._lock:
            return sum(total for _, total in self._cells.values())

    def to_dict(self) -> dict[str, Any]:
        return {"rows": self.rows(), "total_s": self.total_seconds()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)
