"""The serving plan cache: in-memory layer over the plan registry.

Entries are keyed per (machine fingerprint, operator, level,
distribution) — the identity of a serving workload class — and hold an
immutable :class:`CacheEntry` so readers never see a half-updated plan:
a hot swap replaces the whole entry atomically under the cache lock.

The cache implements the **stale-while-tune** contract the server
builds on:

* a warm key serves its cached plan with a dict lookup;
* a key the registry knows (exact fingerprint or nearest profile) is
  pulled in on first touch;
* a genuinely cold key is served *immediately* from the paper's fixed
  heuristic (:func:`repro.tuner.heuristics.tune_heuristic` — seconds,
  not the minutes-scale DP pass), and the entry is marked ``stale`` so
  the server schedules a background DP tune whose result hot-swaps in.

That tune is the only hot swap: every request runs the accuracy rung
it asked for.

The warm-hit path is lock-free: entries live in a dict that is only
ever inserted into or atomically replaced (never deleted from), so a
hit is a plain GIL-safe dict read plus a per-entry counter touch.
Registry misses and background tunes contend on per-key build locks and
the registry's own DB lock — never with warm-key readers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from repro.machines.profile import MachineProfile
from repro.obs.trace import NOOP_TRACER, NoopTracer, Tracer
from repro.operators.spec import OperatorSpec, parse_operator
from repro.serve.telemetry import Telemetry
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedFullMGPlan, TunedVPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.registry import PlanRegistry, TuneKey

__all__ = ["CacheEntry", "PlanCache", "ServeKey"]


@dataclass(frozen=True)
class ServeKey:
    """Identity of one serving workload class (a cache bucket).

    ``ndim`` defaults to the operator family's dimensionality; passing
    it explicitly must agree (a 3-D workload class can never collide
    with a 2-D one — the operator name alone already separates them,
    the field makes the identity self-describing).  ``backend`` is the
    kernel backend plans for this class are tuned against; the default
    keeps pre-backend keys (and their labels) unchanged.
    """

    fingerprint: str
    operator: str
    level: int
    distribution: str
    ndim: int | None = None
    backend: str = "numpy"

    def __post_init__(self) -> None:
        spec = parse_operator(self.operator)
        object.__setattr__(self, "operator", spec.canonical())
        if self.ndim is None:
            object.__setattr__(self, "ndim", spec.ndim)
        elif self.ndim != spec.ndim:
            raise ValueError(
                f"ndim={self.ndim} does not match operator "
                f"{spec.canonical()!r} (a {spec.ndim}-D family)"
            )

    def label(self) -> str:
        """Compact human-readable form (telemetry event key)."""
        base = f"{self.fingerprint}/{self.operator}/L{self.level}/{self.distribution}"
        if self.backend != "numpy":
            base += f"@{self.backend}"
        return base


@dataclass(frozen=True)
class CacheEntry:
    """One immutable cached plan.

    ``source`` records provenance: ``exact``/``nearest``/``tuned`` come
    from the registry (same meaning as
    :class:`~repro.store.registry.RegistryHit`), ``fallback`` is the
    heuristic stand-in, ``swapped`` a background tune that replaced a
    fallback.  ``stale`` marks entries awaiting a background tune;
    ``generation`` increments on every swap so tests and telemetry can
    observe replacement without comparing plan objects.
    """

    plan: TunedVPlan | TunedFullMGPlan
    source: str
    generation: int = 0
    stale: bool = False
    plan_json: str | None = None
    #: requests served from this entry (mutable cell; the entry itself
    #: stays frozen so concurrent readers always see a coherent plan)
    served: list[int] = field(default_factory=lambda: [0], compare=False)
    #: guards ``served`` — per-entry, so counting a hit never contends
    #: with the cache-wide lock the miss/swap paths use
    count_lock: threading.Lock = field(
        default_factory=threading.Lock, compare=False, repr=False
    )

    def serve_count(self) -> int:
        return self.served[0]

    def note_served(self, count: int = 1) -> None:
        with self.count_lock:
            self.served[0] += count


class PlanCache:
    """Per-workload-class plan cache with stale-while-tune semantics.

    One cache serves any number of machines; the machine fingerprint is
    part of the key.  The tuning configuration (kind, accuracy ladder,
    seed, training instances) is fixed per cache — it parameterizes the
    registry :class:`~repro.store.registry.TuneKey` every bucket maps
    to.
    """

    def __init__(
        self,
        registry: "PlanRegistry",
        kind: str = "multigrid-v",
        accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
        seed: int | None = 0,
        instances: int = 3,
        allow_nearest: bool = True,
        telemetry: Telemetry | None = None,
        backend: str = "numpy",
        tracer: Tracer | NoopTracer | None = None,
        model_fallback: bool = False,
    ) -> None:
        from repro.kernels import resolve_backend

        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.registry = registry
        self.kind = kind
        self.accuracies = tuple(accuracies)
        self.seed = seed
        self.instances = instances
        self.allow_nearest = allow_nearest
        #: cold keys try a model-predicted plan (the budgeted BO search
        #: warm-started from the store, :mod:`repro.modeltuner`) before
        #: the fixed heuristic; the entry is still stale, so the
        #: background DP tune swaps in the exact plan as usual
        self.model_fallback = model_fallback
        # Resolved once at construction ("auto" -> whatever this host
        # can actually run), so every key this cache mints is concrete.
        self.backend = resolve_backend(backend)
        self.telemetry = telemetry or Telemetry()
        self._lock = threading.Lock()
        self._entries: dict[ServeKey, CacheEntry] = {}
        # Per-key build locks so a thundering herd on one cold key tunes
        # the heuristic once, without serializing unrelated keys.
        # (Registry access needs no extra locking here: PlanRegistry
        # serializes its database touches on the TrialDB lock.)
        self._build_locks: dict[ServeKey, threading.Lock] = {}

    # -- keys -------------------------------------------------------------

    def key_for(
        self,
        profile: MachineProfile,
        operator: OperatorSpec | str | None,
        level: int,
        distribution: str,
    ) -> ServeKey:
        return ServeKey(
            fingerprint=profile.fingerprint(),
            operator=parse_operator(operator).canonical(),
            level=level,
            distribution=distribution,
            backend=self.backend,
        )

    def tune_key(self, key: ServeKey) -> "TuneKey":
        """The registry tuning key a cache bucket maps to."""
        from repro.store.registry import TuneKey

        return TuneKey(
            kind=self.kind,
            distribution=key.distribution,
            max_level=key.level,
            accuracies=self.accuracies,
            seed=self.seed,
            instances=self.instances,
            operator=key.operator,
            backend=key.backend,
        )

    # -- lookups ----------------------------------------------------------

    def lookup(self, key: ServeKey) -> CacheEntry | None:
        """The in-memory entry for ``key`` (no registry fallthrough).

        Lock-free for the same reason the hit path is: the entry dict
        only ever grows or has values atomically replaced.
        """
        return self._entries.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[ServeKey]:
        with self._lock:
            return list(self._entries)

    def get_or_fallback(
        self, profile: MachineProfile, key: ServeKey, count: int = 1
    ) -> CacheEntry:
        """Serve ``key`` without ever blocking on a DP tune.

        Memory hit -> registry hit (exact, then nearest profile) ->
        heuristic fallback, in that order.  The returned entry's
        ``stale`` flag tells the caller a background tune is owed.
        ``count`` is how many requests this lookup serves (batched
        callers pass the batch size so serve counts and hit counters
        stay per-request).

        The warm-hit path takes **no cache-wide lock**: ``_entries`` is
        insert/replace-only (never shrunk), so the dict read is
        GIL-atomic and a hit touches only the entry's own counter lock.
        Concurrent misses — which can hold a per-key build lock through
        a registry lookup or a heuristic tune — therefore never block a
        warm-key reader (regression-tested in tests/serve).
        """
        entry = self._entries.get(key)
        if entry is not None:
            entry.note_served(count)
            self.telemetry.incr("cache_hits", count)
            self._trace_decision(key, "hit", entry)
            return entry
        with self._lock:
            build_lock = self._build_locks.setdefault(key, threading.Lock())
        with build_lock:
            # Double-check: another thread may have populated the bucket
            # while this one waited on the build lock.
            entry = self._entries.get(key)
            if entry is not None:
                entry.note_served(count)
                self.telemetry.incr("cache_hits", count)
                self._trace_decision(key, "hit", entry)
                return entry
            self.telemetry.incr("cache_misses", count)
            entry = self._load(profile, key)
            with self._lock:
                entry = self._entries.setdefault(key, entry)
            entry.note_served(count)
            self._trace_decision(key, "miss", entry)
            return entry

    def _trace_decision(self, key: ServeKey, decision: str, entry: CacheEntry) -> None:
        """Emit one zero-duration plan-cache decision span (tracing on).

        Parents to the context-local current span — the server activates
        the batch span around its lookup — so the decision lands inside
        the request's tree: ``... -> serve.batch -> plan_cache.decision``.
        """
        if self.tracer.enabled:
            self.tracer.event(
                "plan_cache.decision",
                key=key.label(),
                decision=decision,
                source=entry.source,
                stale=entry.stale,
                generation=entry.generation,
            )

    def _load(self, profile: MachineProfile, key: ServeKey) -> CacheEntry:
        hit = self.registry.get(
            profile, self.tune_key(key), allow_nearest=self.allow_nearest
        )
        if hit is not None:
            self.telemetry.incr(f"registry_{hit.source}")
            return CacheEntry(
                plan=hit.plan, source=hit.source, plan_json=hit.plan_json
            )
        self.telemetry.incr("fallback_builds")
        return CacheEntry(
            plan=self._fallback_plan(profile, key), source="fallback", stale=True
        )

    def _fallback_plan(
        self, profile: MachineProfile, key: ServeKey
    ) -> TunedVPlan | TunedFullMGPlan:
        """A stand-in plan served while the real tune runs in background.

        With ``model_fallback`` on, the first try is a model-predicted
        plan — the budgeted BO search priced by the cost model fitted
        from the store's accumulated trials — which beats the fixed
        heuristic whenever the store has evidence; the heuristic remains
        the last resort (and the only path when the model tuner fails
        for any reason, since a fallback build must never take serving
        down; ``telemetry.failures("model_fallback_errors")`` keeps what
        failed).
        """
        if self.model_fallback:
            try:
                plan = self._model_fallback_plan(profile, key)
            except Exception as exc:
                self.telemetry.failure("model_fallback_errors", exc, key=key.label())
            else:
                self.telemetry.incr("model_fallback_builds")
                plan.metadata["serve_fallback"] = True
                return plan
        return self._heuristic_fallback_plan(profile, key)

    def _model_fallback_plan(
        self, profile: MachineProfile, key: ServeKey
    ) -> TunedVPlan | TunedFullMGPlan:
        from repro.modeltuner.warmstart import model_plan_for_key

        return model_plan_for_key(self.registry, profile, self.tune_key(key))

    def _heuristic_fallback_plan(
        self, profile: MachineProfile, key: ServeKey
    ) -> TunedVPlan:
        """The paper's fixed heuristic, trained for this workload class.

        Strategy 10^final (recursion pinned to the ladder's top
        accuracy) is the strongest of the Figure 7 heuristics and needs
        no per-level accuracy search, so it trains in a fraction of the
        DP's time — cheap enough to serve a cold key's first request.
        It is placed on the key's kernel backend, like the tuned plan
        that replaces it.
        """
        from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
        from repro.tuner.spec import TuneSpec

        spec = TuneSpec(self.tune_key(key), pricing=profile)
        final = len(self.accuracies) - 1
        plan = tune_heuristic(
            HeuristicStrategy(sub_index=final, final_index=final),
            max_level=key.level,
            accuracies=self.accuracies,
            training=spec.training(),
            timing=spec.timing(),
            backend=key.backend,
        )
        plan.metadata["serve_fallback"] = True
        return plan

    # -- warmup and swap --------------------------------------------------

    def warm(
        self,
        profile: MachineProfile,
        distribution: str,
        level: int,
        operator: OperatorSpec | str | None = None,
    ) -> CacheEntry:
        """Synchronously ensure a *tuned* plan is cached for this class.

        Runs the registry's get-or-tune (the DP on a cold store), so a
        warmed key never serves the heuristic fallback.  Idempotent:
        warming an already-fresh key is a no-op lookup.
        """
        key = self.key_for(profile, operator, level, distribution)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not entry.stale:
                return entry
        hit = self.registry.get_or_tune(
            profile, self.tune_key(key), allow_nearest=self.allow_nearest
        )
        self.telemetry.incr("warmed_keys")
        entry = CacheEntry(plan=hit.plan, source=hit.source, plan_json=hit.plan_json)
        return self._install(key, entry)

    def warm_many(
        self,
        profile: MachineProfile,
        specs: Iterable[tuple[str, int, "OperatorSpec | str | None"]],
    ) -> list[CacheEntry]:
        """Warm a batch of (distribution, level, operator) classes."""
        return [
            self.warm(profile, dist, level, operator) for dist, level, operator in specs
        ]

    def swap(
        self,
        key: ServeKey,
        plan: TunedVPlan | TunedFullMGPlan,
        source: str = "swapped",
        plan_json: str | None = None,
    ) -> CacheEntry:
        """Atomically replace the entry for ``key`` with a tuned plan.

        Readers that already hold the old entry keep solving with it
        (entries are immutable — no torn plans); the next lookup sees
        the new one.  Returns the installed entry.
        """
        with self._lock:
            old = self._entries.get(key)
            generation = (old.generation + 1) if old is not None else 0
            entry = CacheEntry(
                plan=plan, source=source, generation=generation, plan_json=plan_json
            )
            self._entries[key] = entry
            self.telemetry.swap_event(
                key.label(),
                old_source=old.source if old is not None else "(empty)",
                new_source=source,
                generation=generation,
                stale_served=old.serve_count() if old is not None else 0,
            )
            if self.tracer.enabled:
                self.tracer.event(
                    "plan_cache.swap",
                    key=key.label(),
                    old_source=old.source if old is not None else "(empty)",
                    new_source=source,
                    generation=generation,
                )
            return entry

    def _install(self, key: ServeKey, entry: CacheEntry) -> CacheEntry:
        """Install a fresh (non-swap) entry, keeping any newer one."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and not existing.stale:
                return existing
            if existing is not None:
                entry = replace(entry, generation=existing.generation + 1)
            self._entries[key] = entry
            return entry
