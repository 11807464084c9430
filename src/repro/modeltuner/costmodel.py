"""Learned per-op cost models fitted from measured solve profiles.

The analytic :class:`~repro.machines.profile.MachineProfile` prices ops
from first principles; this module learns the same (op, n) -> seconds
mapping from *evidence*: the per-(level, op, backend) cells a
:class:`~repro.obs.profile.SolveProfiler` aggregates during real solves
(via :meth:`~repro.obs.profile.SolveProfiler.to_training_rows`) and the
plan-level costs accumulated in the trial store.  A fitted
:class:`CostModel` then re-prices the existing DP — or the budgeted
:class:`~repro.modeltuner.bo.BOSearch` — for a machine with zero local
trials, upgrading the registry's nearest-profile warm-start to an actual
prediction.

Each op gets a power law ``seconds = coeff * points**exponent`` (points
= n**2 or n**3 by op dimensionality) fitted by weighted least squares in
log-log space — the functional family the roofline model itself lives
in, so two or three measured sizes pin an op down well.  Ops with no
measurements fall back to the base profile's analytic price scaled by a
global calibration factor (the geometric-mean measured/analytic ratio),
so the model always prices the full vocabulary.  Predictions are clamped
finite and positive for *any* well-formed input — the property the
hypothesis suite pins.

Everything here is pure data: a model serializes to JSON (laws + base
profile + calibration + provenance) and round-trips through
:meth:`CostModel.from_dict`, which is how fitted artifacts travel
through the schema-v6 store to fleet workers and serving caches.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.machines.meter import OPS, backend_op, base_op
from repro.machines.profile import MachineProfile

__all__ = ["CostModel", "OpLaw", "points_of"]

#: Exponent bounds for fitted power laws.  Real op costs scale between
#: roughly linear in points (bandwidth-bound stencils) and quadratic
#: (2-D band-Cholesky is O(n^4) = points^2); anything outside is a
#: degenerate fit on noisy data and gets clamped.
_MIN_EXPONENT = 0.25
_MAX_EXPONENT = 3.0

#: Floor for any predicted op time: strictly positive keeps budget-cap
#: arithmetic (``best_time / unit_cost``) and log-space math finite.
_MIN_SECONDS = 1e-12
_MAX_SECONDS = 1e12


def points_of(op: str, n: int) -> float:
    """Grid points one occurrence of ``op`` touches at side length n."""
    base = base_op(op)
    if base.endswith("3d"):
        return float(n) ** 3
    return float(n) * float(n)


def _clamp_seconds(value: float) -> float:
    if not math.isfinite(value) or value < _MIN_SECONDS:
        return _MIN_SECONDS
    return min(value, _MAX_SECONDS)


@dataclass(frozen=True)
class OpLaw:
    """Fitted power law for one op: ``seconds = coeff * points**exponent``."""

    coeff: float
    exponent: float
    #: how many measurement rows the fit saw (provenance / diagnostics)
    observations: int = 0

    def predict(self, points: float) -> float:
        return _clamp_seconds(self.coeff * points**self.exponent)

    def to_dict(self) -> dict[str, Any]:
        return {
            "coeff": self.coeff,
            "exponent": self.exponent,
            "observations": self.observations,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "OpLaw":
        return cls(
            coeff=float(data["coeff"]),
            exponent=float(data["exponent"]),
            observations=int(data.get("observations", 0)),
        )


def _reference_exponent(base: MachineProfile, op: str) -> float:
    """The base profile's own cost-vs-points exponent for ``op``.

    Anchors single-size fits: with one measured size the data cannot
    determine a slope, so the analytic model's shape is borrowed and
    only the level is learned.
    """
    try:
        lo, hi = 17, 65
        t_lo = base.op_seconds(op, lo)
        t_hi = base.op_seconds(op, hi)
        if t_lo <= 0.0 or t_hi <= 0.0:
            return 1.0
        slope = math.log(t_hi / t_lo) / math.log(points_of(op, hi) / points_of(op, lo))
    except (KeyError, ValueError, ZeroDivisionError, OverflowError):
        return 1.0
    if not math.isfinite(slope):
        return 1.0
    return min(max(slope, _MIN_EXPONENT), _MAX_EXPONENT)


def _fit_law(
    samples: list[tuple[float, float, float]],
    fallback_exponent: float,
) -> OpLaw:
    """Weighted log-log least squares over (points, seconds, weight)."""
    logp = np.array([math.log(p) for p, _, _ in samples])
    logt = np.array([math.log(t) for _, t, _ in samples])
    w = np.array([wt for _, _, wt in samples])
    w = w / w.sum()
    mean_p = float(w @ logp)
    mean_t = float(w @ logt)
    var_p = float(w @ (logp - mean_p) ** 2)
    if var_p < 1e-12:
        exponent = fallback_exponent
    else:
        exponent = float(w @ ((logp - mean_p) * (logt - mean_t))) / var_p
        exponent = min(max(exponent, _MIN_EXPONENT), _MAX_EXPONENT)
    coeff = math.exp(mean_t - exponent * mean_p)
    if not math.isfinite(coeff) or coeff <= 0.0:
        coeff = _MIN_SECONDS
    return OpLaw(coeff=coeff, exponent=exponent, observations=len(samples))


@dataclass(frozen=True)
class CostModel:
    """Learned (op, n) -> seconds pricing over a base analytic profile."""

    base: MachineProfile
    laws: dict[str, OpLaw] = field(default_factory=dict)
    #: measured/analytic ratio applied to ops with no fitted law
    calibration: float = 1.0
    provenance: dict[str, Any] = field(default_factory=dict)

    # -- pricing ----------------------------------------------------------

    def op_seconds(self, op: str, n: int) -> float:
        """Predicted seconds for one occurrence of ``op`` at size ``n``.

        Always finite and strictly positive: fitted laws are clamped,
        and the analytic fallback is scaled by the global calibration.
        """
        law = self.laws.get(op)
        if law is not None:
            return law.predict(points_of(op, n))
        try:
            analytic = self.base.op_seconds(op, n)
        except (KeyError, ValueError):
            analytic = _MIN_SECONDS
        return _clamp_seconds(analytic * self.calibration)

    # -- fitting ----------------------------------------------------------

    @classmethod
    def fit(
        cls,
        rows: Iterable[dict[str, Any]],
        base_profile: MachineProfile,
        trials: Sequence[Any] = (),
        provenance: dict[str, Any] | None = None,
    ) -> "CostModel":
        """Fit per-op laws from measurement rows (+ stored trial evidence).

        ``rows`` are :meth:`SolveProfiler.to_training_rows` dicts
        (``{op, n, seconds, weight}``); malformed or non-positive rows
        are skipped, never fatal, and counted as ``rows_skipped`` on the
        ``modeltuner.fit`` span (a trial whose plan will not parse or
        price, as ``trials_skipped``).  ``trials`` are
        :class:`~repro.store.trialdb.TrialRecord`-shaped objects whose
        ``plan_json`` + ``simulated_cost`` pairs contribute low-weight
        per-op pseudo-rows: the stored plan's unit meter is priced on
        the base profile and each op's analytic time is scaled so the
        total matches the recorded cost — plan-level evidence spread
        consistently over the ops it exercised.
        """
        from repro.obs.runtime import get_tracer

        samples: dict[str, list[tuple[float, float, float]]] = {}
        ratios: list[tuple[float, float]] = []
        n_rows = rows_skipped = 0
        for row in rows:
            try:
                op = str(row["op"])
                n = int(row["n"])
                seconds = float(row["seconds"])
                weight = float(row.get("weight", 1.0))
            except (KeyError, TypeError, ValueError):
                rows_skipped += 1
                continue
            if n < 3 or seconds <= 0.0 or weight <= 0.0 or not math.isfinite(seconds):
                rows_skipped += 1
                continue
            samples.setdefault(op, []).append((points_of(op, n), seconds, weight))
            n_rows += 1
            try:
                analytic = base_profile.op_seconds(op, n)
            except (KeyError, ValueError):
                analytic = 0.0
            if analytic > 0.0:
                ratios.append((seconds / analytic, weight))
        n_trials, trials_skipped = cls._fold_trials(
            trials, base_profile, samples, ratios
        )
        # The skip counts ride on the span only: provenance is part of
        # the model's JSON and fingerprint.
        with get_tracer().span(
            "modeltuner.fit",
            base=base_profile.name,
            rows=n_rows,
            trials=n_trials,
            ops=len(samples),
            rows_skipped=rows_skipped,
            trials_skipped=trials_skipped,
        ):
            laws = {
                op: _fit_law(pts, _reference_exponent(base_profile, op))
                for op, pts in sorted(samples.items())
            }
            calibration = _geometric_mean(ratios)
        meta = dict(provenance or {})
        meta.setdefault("rows", n_rows)
        meta.setdefault("trials", n_trials)
        meta.setdefault("base_fingerprint", base_profile.fingerprint())
        return cls(
            base=base_profile,
            laws=laws,
            calibration=calibration,
            provenance=meta,
        )

    @staticmethod
    def _fold_trials(
        trials: Sequence[Any],
        base_profile: MachineProfile,
        samples: dict[str, list[tuple[float, float, float]]],
        ratios: list[tuple[float, float]],
    ) -> tuple[int, int]:
        """Fold stored trials into ``samples``/``ratios``; returns
        (trials folded, trials skipped because their plan would not
        parse or price)."""
        from repro.tuner.config import plan_from_dict

        folded = skipped = 0
        for trial in trials:
            plan_json = getattr(trial, "plan_json", None)
            cost = getattr(trial, "simulated_cost", None)
            if not plan_json or not cost or cost <= 0.0:
                continue
            try:
                plan = plan_from_dict(json.loads(plan_json))
                meter = plan.unit_meter(plan.max_level, plan.num_accuracies - 1)
                analytic_total = base_profile.price(meter)
            except Exception:
                skipped += 1
                continue
            if analytic_total <= 0.0:
                skipped += 1
                continue
            scale = cost / analytic_total
            ratios.append((scale, 0.25))
            for (op, n), count in meter.items():
                try:
                    analytic = base_profile.op_seconds(op, n)
                except (KeyError, ValueError):
                    continue
                if analytic <= 0.0:
                    continue
                samples.setdefault(op, []).append(
                    (points_of(op, n), analytic * scale, 0.25 * count)
                )
            folded += 1
        return folded, skipped

    # -- identity / serialization ----------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "base_profile": self.base.to_dict(),
            "base_name": self.base.name,
            "laws": {op: law.to_dict() for op, law in sorted(self.laws.items())},
            "calibration": self.calibration,
            # Always null: kept so fingerprints of stored artifacts hold.
            "threads": None,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CostModel":
        base = MachineProfile.from_dict(
            data["base_profile"], name=str(data.get("base_name", "profile"))
        )
        return cls(
            base=base,
            laws={
                op: OpLaw.from_dict(law) for op, law in data.get("laws", {}).items()
            },
            calibration=float(data.get("calibration", 1.0)),
            provenance=dict(data.get("provenance", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "CostModel":
        return cls.from_dict(json.loads(payload))

    def fingerprint(self) -> str:
        """Stable content hash of the fitted model (artifact identity)."""
        payload = json.dumps(
            {k: v for k, v in self.to_dict().items() if k != "provenance"},
            sort_keys=True,
            separators=(",", ":"),
        )
        return "cm-" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def known_ops(self) -> tuple[str, ...]:
        """The full op vocabulary this model prices (fitted + fallback)."""
        extra = tuple(op for op in self.laws if op not in OPS)
        return OPS + extra

    @staticmethod
    def vocabulary(ndim: int = 2, backend: str = "numpy") -> tuple[str, ...]:
        """The qualified op names a (ndim, backend) tune prices."""
        ops = tuple(op for op in OPS if op.endswith("3d") == (ndim == 3))
        return tuple(backend_op(op, backend) for op in ops)


def _geometric_mean(ratios: list[tuple[float, float]]) -> float:
    usable = [
        (r, w) for r, w in ratios if r > 0.0 and math.isfinite(r) and w > 0.0
    ]
    if not usable:
        return 1.0
    # Plain left-to-right sums, as ``OpMeter.price``: the builtin
    # ``sum`` compensates float rounding from Python 3.12 on, which would
    # fit (and fingerprint) the same rows differently per interpreter.
    total_w = 0.0
    weighted_log = 0.0
    for r, w in usable:
        total_w += w
        weighted_log += w * math.log(r)
    mean_log = weighted_log / total_w
    try:
        value = math.exp(mean_log)
    except OverflowError:
        return 1.0
    if not math.isfinite(value) or value <= 0.0:
        return 1.0
    return value

