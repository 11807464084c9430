"""The plan registry: tune once, reuse everywhere.

PetaBricks' operational model is "tuning is performed offline ... the
autotuner generates an optimized configuration file; subsequent runs use
the saved configuration" (section 3.2.1).  :class:`PlanRegistry` is that
model made persistent and multi-machine:

* **exact hit** — a plan tuned for this machine fingerprint and tuning
  key is returned byte-identically from the database, skipping the
  entire DP pass;
* **nearest-profile fallback** — with no exact hit, the registry can
  serve the plan of the *closest* known machine (the paper's Figure 14
  cross-architecture experiment shows tuned plans transfer with modest
  slowdown, far better than re-running a heuristic);
* **tune-and-insert** — otherwise the DP runs once, the trial is logged,
  and the plan is stored for every future caller.
"""

from __future__ import annotations

import json
import math
import os
import socket
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.machines.profile import MachineProfile
from repro.store.sink import DBTrialSink, plan_cycle_shape
from repro.store.trialdb import (
    TrialDB,
    TrialRecord,
    canonical_accuracies,
    canonical_seed,
)
from repro.tuner.config import plan_from_dict, plan_to_dict
from repro.tuner.plan import TunedFullMGPlan, TunedVPlan
from repro.tuner.spec import TuneKey, TuneSpec, tune

__all__ = [
    "PlanRegistry",
    "RegistryHit",
    "TuneKey",
    "build_provenance",
    "profile_distance",
]

def build_provenance(
    worker: str | None = None,
    attempt: int = 1,
    duration_s: float | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """Structured who-ran-this metadata for a tuning run.

    Every tuned plan's trial row records where the tune actually
    executed — host, pid, the fleet worker id and attempt number when
    one is involved — as first-class resultfield JSON, rather than
    burying execution context in ``serve_swap``-style plan metadata.
    """
    out: dict[str, Any] = {
        "worker": worker,
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "attempt": int(attempt),
    }
    if duration_s is not None:
        out["duration_s"] = float(duration_s)
    out.update(extra)
    return out


@dataclass(frozen=True)
class RegistryHit:
    """Outcome of a registry lookup-or-tune."""

    plan: TunedVPlan | TunedFullMGPlan
    #: 'exact' (this fingerprint), 'nearest' (closest known machine), or
    #: 'tuned' (DP ran in this call)
    source: str
    fingerprint: str
    plan_json: str
    #: profile distance of the serving machine (0.0 for exact/tuned)
    distance: float = 0.0
    machine_name: str | None = None


def _flatten(value: Any, path: str, out: dict[str, Any]) -> None:
    """Flatten nested dicts/lists to (dotted-path, scalar) pairs so every
    parameter — including the per-op shape tables — enters the metric."""
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{path}.{key}", out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value


def profile_distance(a: dict[str, Any], b: dict[str, Any]) -> float:
    """Log-scale RMS distance between two profile content dicts.

    Rates and capacities differ across machines by orders of magnitude,
    so each scalar contributes ``|log10(a/b)|``; nearest-profile lookup
    minimizes this over stored plans.  Scalars only one side defines
    count as fully different, so a missing or extra field cannot shrink
    the distance.
    """
    flat_a: dict[str, Any] = {}
    flat_b: dict[str, Any] = {}
    _flatten(a, "", flat_a)
    _flatten(b, "", flat_b)
    total = 0.0
    count = 0
    for name in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(name), flat_b.get(name)
        count += 1
        if va is None or vb is None:
            total += 1.0
        elif isinstance(va, bool) or isinstance(vb, bool):
            total += 0.0 if va == vb else 1.0
        elif isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            if va > 0 and vb > 0:
                total += math.log10(va / vb) ** 2
            elif va != vb:
                total += 1.0
        elif va != vb:
            total += 1.0
    if count == 0:
        return math.inf
    return math.sqrt(total / count)


class PlanRegistry:
    """Content-addressed store of tuned plans over a :class:`TrialDB`.

    Registry methods serialize their database touches on the TrialDB's
    reentrant lock, so one registry may be shared across threads (the
    solve server's workers and background tuner do); the DP tune inside
    :meth:`get_or_tune` runs *outside* the lock, so concurrent lookups
    never wait behind a tune.
    """

    def __init__(self, db: TrialDB | str | Path = ":memory:") -> None:
        self.db = db if isinstance(db, TrialDB) else TrialDB(db)
        self.sink = DBTrialSink(self.db)

    # -- lookups ----------------------------------------------------------

    def get(
        self,
        profile: MachineProfile,
        key: TuneKey,
        allow_nearest: bool = True,
        max_distance: float | None = None,
    ) -> RegistryHit | None:
        """The stored plan for (profile, key), or ``None``.

        Exact fingerprint matches win; otherwise, when ``allow_nearest``,
        the closest stored profile with the same tuning key serves (if
        within ``max_distance``, when given).
        """
        fingerprint = profile.fingerprint()
        with self.db.lock:
            row = self.db.conn.execute(
                "SELECT * FROM plans WHERE plan_key = ?",
                (key.storage_key(fingerprint),),
            ).fetchone()
        if row is not None:
            self._touch(row["id"])
            return RegistryHit(
                plan=plan_from_dict(json.loads(row["plan_json"])),
                source="exact",
                fingerprint=fingerprint,
                plan_json=row["plan_json"],
                machine_name=row["machine_name"],
            )
        if not allow_nearest:
            return None
        return self._nearest(profile, key, max_distance)

    def _nearest(
        self,
        profile: MachineProfile,
        key: TuneKey,
        max_distance: float | None,
    ) -> RegistryHit | None:
        mine = profile.to_dict()
        with self.db.lock:
            rows = self.db.conn.execute(
                """
                SELECT * FROM plans
                WHERE kind = ? AND distribution = ? AND operator = ? AND ndim = ?
                  AND backend = ? AND max_level = ? AND accuracies = ? AND seed = ?
                  AND instances = ?
                """,
                (
                    key.kind,
                    key.distribution,
                    key.operator,
                    key.ndim,
                    key.backend,
                    key.max_level,
                    canonical_accuracies(key.accuracies),
                    canonical_seed(key.seed),
                    key.instances,
                ),
            ).fetchall()
        best_row, best_dist = None, math.inf
        for row in rows:
            dist = profile_distance(mine, json.loads(row["profile_json"]))
            if dist < best_dist:
                best_row, best_dist = row, dist
        if best_row is None:
            return None
        if max_distance is not None and best_dist > max_distance:
            return None
        self._touch(best_row["id"])
        return RegistryHit(
            plan=plan_from_dict(json.loads(best_row["plan_json"])),
            source="nearest",
            fingerprint=best_row["machine_fingerprint"],
            plan_json=best_row["plan_json"],
            distance=best_dist,
            machine_name=best_row["machine_name"],
        )

    def _touch(self, plan_id: int) -> None:
        # Best-effort: the hit counter is telemetry, and lookups must stay
        # effectively read-only — never fail (or block on the single-writer
        # lock, e.g. during a concurrent VACUUM) just to bump it.
        with self.db.lock:
            try:
                self.db.conn.execute(
                    """
                    UPDATE plans SET hits = hits + 1,
                        last_used_at = strftime('%Y-%m-%dT%H:%M:%fZ', 'now')
                    WHERE id = ?
                    """,
                    (plan_id,),
                )
                self.db.conn.commit()
            except sqlite3.OperationalError:
                self.db.conn.rollback()

    # -- writes -----------------------------------------------------------

    def put(
        self,
        profile: MachineProfile,
        key: TuneKey,
        plan: TunedVPlan | TunedFullMGPlan,
    ) -> str:
        """Store (or replace) the plan for (profile, key); returns its
        canonical JSON."""
        fingerprint = profile.fingerprint()
        plan_json = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
        tuner_name = str(plan.metadata.get("tuner", "dp"))

        def upsert(conn: sqlite3.Connection) -> None:
            conn.execute(
                """
                INSERT INTO plans (plan_key, kind, distribution, operator, ndim,
                                   backend, max_level, accuracies,
                                   machine_fingerprint, seed, instances,
                                   machine_name, profile_json, plan_json, tuner)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (plan_key) DO UPDATE SET
                    plan_json = excluded.plan_json,
                    profile_json = excluded.profile_json,
                    machine_name = excluded.machine_name,
                    tuner = excluded.tuner
                """,
                (
                    key.storage_key(fingerprint),
                    key.kind,
                    key.distribution,
                    key.operator,
                    key.ndim,
                    key.backend,
                    key.max_level,
                    canonical_accuracies(key.accuracies),
                    fingerprint,
                    canonical_seed(key.seed),
                    key.instances,
                    profile.name,
                    json.dumps(profile.to_dict(), sort_keys=True),
                    plan_json,
                    tuner_name,
                ),
            )
            conn.commit()

        self.db.write(upsert)
        return plan_json

    # -- the main entry point ---------------------------------------------

    def get_or_tune(
        self,
        profile: MachineProfile,
        key: TuneKey | None = None,
        *,
        allow_nearest: bool = True,
        max_distance: float | None = None,
        tuner: Callable[[], TunedVPlan | TunedFullMGPlan] | str | None = None,
        record_trial: bool = True,
        jobs: int | None = None,
        provenance: dict[str, Any] | None = None,
        **key_fields: Any,
    ) -> RegistryHit:
        """Serve a plan: exact hit, nearest-profile fallback, or tune.

        ``key`` can be given directly or assembled from keyword fields
        (``kind=, distribution=, max_level=, ...``).  ``tuner`` overrides
        how a cold plan is produced (tests count invocations through it):
        a callable runs as-is, ``"model"`` runs the learned-cost-model BO
        search warm-started from this store's accumulated trials (see
        :func:`repro.modeltuner.warmstart.model_plan_for_key`), and
        ``None`` / ``"dp"`` runs the paper's exhaustive DP tuner for
        ``key.kind``.  ``jobs`` > 1 fans the model search's candidate
        evaluations across that many worker processes (the tuned plan is
        identical either way); DP tunes do not fan out, since every
        accuracy slot of a level reads one set of training runs per
        candidate.

        ``provenance`` overrides the structured execution metadata
        stamped on a cold tune's trial row (fleet workers pass their
        worker id and attempt); by default the local host/pid record
        from :func:`build_provenance` is used.
        """
        if key is None:
            key = TuneKey(**key_fields)
        elif key_fields:
            raise TypeError("pass either a TuneKey or keyword fields, not both")
        hit = self.get(profile, key, allow_nearest, max_distance)
        if hit is not None:
            return hit
        if tuner is None or tuner == "dp":
            tuner = lambda: tune(TuneSpec(key, pricing=profile), jobs)
        elif tuner == "model":
            from repro.modeltuner.warmstart import model_plan_for_key

            tuner = lambda: model_plan_for_key(self, profile, key, jobs=jobs)
        elif isinstance(tuner, str):
            raise ValueError(f"unknown tuner {tuner!r}; use 'dp' or 'model'")
        from repro.obs.runtime import get_tracer

        start = time.perf_counter()
        with get_tracer().span(
            "registry.tune",
            kind=key.kind,
            operator=key.operator,
            distribution=key.distribution,
            max_level=key.max_level,
            backend=key.backend,
        ):
            plan = tuner()
        wall = time.perf_counter() - start
        return self.record_tuned_plan(
            profile, key, plan, wall, record_trial=record_trial,
            provenance=provenance,
        )

    def record_tuned_plan(
        self,
        profile: MachineProfile,
        key: TuneKey,
        plan: TunedVPlan | TunedFullMGPlan,
        wall_seconds: float,
        record_trial: bool = True,
        provenance: dict[str, Any] | None = None,
    ) -> RegistryHit:
        """Store a freshly tuned plan and log its trial (one commit path
        shared by :meth:`get_or_tune` and out-of-band tuners such as the
        solve server's background jobs).  The trial row carries
        structured ``provenance`` JSON — who tuned, where, attempt
        number, duration — defaulting to this process's identity."""
        plan_json = self.put(profile, key, plan)
        if provenance is None:
            provenance = build_provenance(duration_s=wall_seconds)
        else:
            provenance = dict(provenance)
            provenance.setdefault("duration_s", wall_seconds)
        if record_trial:
            self.sink.record(
                TrialRecord(
                    kind=key.kind,
                    distribution=key.distribution,
                    operator=key.operator,
                    ndim=key.ndim,
                    backend=key.backend,
                    max_level=key.max_level,
                    accuracies=tuple(key.accuracies),
                    machine_fingerprint=profile.fingerprint(),
                    seed=key.seed,
                    instances=key.instances,
                    machine_name=profile.name,
                    cycle_shape=plan_cycle_shape(plan),
                    simulated_cost=plan.time_on(
                        profile, plan.max_level, plan.num_accuracies - 1
                    ),
                    wall_seconds=wall_seconds,
                    provenance=json.dumps(
                        provenance, sort_keys=True, separators=(",", ":")
                    ),
                    tuner=str(plan.metadata.get("tuner", "dp")),
                    plan_json=plan_json,
                )
            )
        return RegistryHit(
            plan=plan,
            source="tuned",
            fingerprint=profile.fingerprint(),
            plan_json=plan_json,
            machine_name=profile.name,
        )

    # -- introspection ----------------------------------------------------

    def contents(self) -> dict[str, str]:
        """``plan_key -> canonical plan JSON`` for every stored plan.

        Volatile columns (row ids, timestamps, hit counters) are
        excluded, so two registries warmed by different execution
        strategies — e.g. a serial and a parallel campaign — compare
        equal exactly when they serve identical plans for identical
        keys.
        """
        with self.db.lock:
            rows = self.db.conn.execute(
                "SELECT plan_key, plan_json FROM plans ORDER BY plan_key"
            ).fetchall()
        return {row["plan_key"]: row["plan_json"] for row in rows}

    def plans(self, operator: str | None = None) -> list[dict[str, Any]]:
        """Summary rows of stored plans (for ``store ls``).

        ``operator`` filters to one operator family/spec; any spelling
        is normalized to the canonical form rows are stored under.
        """
        query = """
            SELECT kind, distribution, operator, ndim, backend, max_level,
                   machine_name, machine_fingerprint, seed, instances, hits,
                   created_at, last_used_at
            FROM plans
            """
        params: tuple[Any, ...] = ()
        if operator is not None:
            from repro.operators.spec import parse_operator

            query += " WHERE operator = ?"
            params = (parse_operator(operator).canonical(),)
        with self.db.lock:
            rows = self.db.conn.execute(query + " ORDER BY id", params).fetchall()
        return [dict(row) for row in rows]

    def __len__(self) -> int:
        with self.db.lock:
            (n,) = self.db.conn.execute("SELECT COUNT(*) FROM plans").fetchone()
        return int(n)
