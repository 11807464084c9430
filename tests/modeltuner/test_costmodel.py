"""Learned cost models: fitting, clamps, fallback pricing, round-trip."""

import json
import math
from types import SimpleNamespace

import pytest

from repro.machines.meter import OPS, OpMeter
from repro.machines.presets import INTEL_HARPERTOWN
from repro.modeltuner.costmodel import (
    _MAX_EXPONENT,
    _MIN_EXPONENT,
    CostModel,
    OpLaw,
    points_of,
)
from repro.tuner.config import plan_to_dict
from repro.tuner.dp import VCycleTuner
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData


def rows_for(op: str, law: OpLaw, sizes=(17, 33, 65), weight=10.0):
    """Noise-free measurement rows following an exact power law."""
    return [
        {
            "op": op,
            "n": n,
            "seconds": law.coeff * points_of(op, n) ** law.exponent,
            "weight": weight,
        }
        for n in sizes
    ]


class TestPointsOf:
    def test_2d_ops_touch_n_squared(self):
        assert points_of("relax", 10) == 100.0
        assert points_of("relax@cnative", 10) == 100.0

    def test_3d_ops_touch_n_cubed(self):
        assert points_of("relax3d", 10) == 1000.0
        assert points_of("direct3d", 5) == 125.0


class TestFit:
    def test_recovers_exact_power_law(self):
        truth = OpLaw(coeff=3e-9, exponent=1.2)
        model = CostModel.fit(rows_for("relax", truth), INTEL_HARPERTOWN)
        law = model.laws["relax"]
        assert law.exponent == pytest.approx(1.2, rel=1e-6)
        assert law.coeff == pytest.approx(3e-9, rel=1e-6)
        assert law.observations == 3
        for n in (17, 33, 129):
            assert model.op_seconds("relax", n) == pytest.approx(
                truth.predict(points_of("relax", n)), rel=1e-6
            )

    def test_exponent_clamped_to_sane_range(self):
        # A wildly super-cubic trend is a degenerate fit, not physics.
        steep = rows_for("relax", OpLaw(coeff=1e-12, exponent=5.0))
        model = CostModel.fit(steep, INTEL_HARPERTOWN)
        assert model.laws["relax"].exponent == _MAX_EXPONENT
        flat = rows_for("relax", OpLaw(coeff=1e-6, exponent=0.01))
        model = CostModel.fit(flat, INTEL_HARPERTOWN)
        assert model.laws["relax"].exponent == _MIN_EXPONENT

    def test_single_size_borrows_analytic_exponent(self):
        # One measured size cannot determine a slope: the analytic
        # model's own cost-vs-points exponent anchors the law.
        model = CostModel.fit(
            [{"op": "relax", "n": 33, "seconds": 1e-4, "weight": 4.0}],
            INTEL_HARPERTOWN,
        )
        law = model.laws["relax"]
        assert _MIN_EXPONENT <= law.exponent <= _MAX_EXPONENT
        # The measured point itself is reproduced exactly.
        assert model.op_seconds("relax", 33) == pytest.approx(1e-4, rel=1e-9)

    def test_malformed_rows_skipped_not_fatal(self):
        rows = [
            {"op": "relax"},  # no size/seconds
            {"op": "relax", "n": 2, "seconds": 1.0},  # n < 3
            {"op": "relax", "n": 33, "seconds": 0.0},  # no signal
            {"op": "relax", "n": 33, "seconds": -1.0},
            {"op": "relax", "n": 33, "seconds": float("nan")},
            {"op": "relax", "n": "not-a-size", "seconds": 1.0},
            {"op": "relax", "n": 33, "seconds": 1e-4, "weight": 0.0},
        ]
        model = CostModel.fit(rows, INTEL_HARPERTOWN)
        assert model.laws == {}
        assert model.provenance["rows"] == 0

    def test_empty_fit_prices_like_analytic_profile(self):
        model = CostModel.fit([], INTEL_HARPERTOWN)
        assert model.laws == {}
        assert model.calibration == 1.0
        for op in OPS:
            for n in (17, 65):
                assert model.op_seconds(op, n) == pytest.approx(
                    INTEL_HARPERTOWN.op_seconds(op, n), rel=1e-9
                )

    def test_calibration_scales_unfitted_ops(self):
        # Measurements uniformly 2x the analytic price: unmeasured ops
        # inherit the ratio through the global calibration.
        rows = [
            {
                "op": "relax",
                "n": n,
                "seconds": 2.0 * INTEL_HARPERTOWN.op_seconds("relax", n),
                "weight": 1.0,
            }
            for n in (17, 33, 65)
        ]
        model = CostModel.fit(rows, INTEL_HARPERTOWN)
        assert model.calibration == pytest.approx(2.0, rel=1e-6)
        assert model.op_seconds("residual", 33) == pytest.approx(
            2.0 * INTEL_HARPERTOWN.op_seconds("residual", 33), rel=1e-6
        )


class TestTrialFolding:
    def _trial(self, scale: float):
        plan = VCycleTuner(
            max_level=3,
            training=TrainingData(distribution="unbiased", instances=1, seed=0),
            timing=CostModelTiming(INTEL_HARPERTOWN),
            keep_audit=False,
        ).tune()
        meter = plan.unit_meter(plan.max_level, plan.num_accuracies - 1)
        analytic = INTEL_HARPERTOWN.price(meter)
        return SimpleNamespace(
            plan_json=json.dumps(plan_to_dict(plan)),
            simulated_cost=scale * analytic,
        )

    def test_stored_trials_become_pseudo_observations(self):
        model = CostModel.fit([], INTEL_HARPERTOWN, trials=[self._trial(3.0)])
        assert model.provenance["trials"] == 1
        assert model.laws  # the plan's ops got laws
        # Plan-level cost 3x analytic spreads as a 3x calibration.
        assert model.calibration == pytest.approx(3.0, rel=1e-3)

    def test_unusable_trials_skipped(self):
        junk = [
            SimpleNamespace(plan_json=None, simulated_cost=1.0),
            SimpleNamespace(plan_json="{not json", simulated_cost=1.0),
            SimpleNamespace(plan_json="{}", simulated_cost=0.0),
        ]
        model = CostModel.fit([], INTEL_HARPERTOWN, trials=junk)
        assert model.provenance["trials"] == 0
        assert model.laws == {}


class TestSerialization:
    def test_round_trip_preserves_predictions_and_identity(self):
        model = CostModel.fit(
            rows_for("relax", OpLaw(coeff=2e-9, exponent=1.1)), INTEL_HARPERTOWN
        )
        clone = CostModel.from_json(model.to_json())
        assert clone.fingerprint() == model.fingerprint()
        for op in ("relax", "residual", "direct"):
            assert clone.op_seconds(op, 33) == pytest.approx(
                model.op_seconds(op, 33), rel=1e-12
            )

    def test_fingerprint_ignores_provenance(self):
        rows = rows_for("relax", OpLaw(coeff=2e-9, exponent=1.1))
        a = CostModel.fit(rows, INTEL_HARPERTOWN, provenance={"source": "x"})
        b = CostModel.fit(rows, INTEL_HARPERTOWN, provenance={"source": "y"})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint().startswith("cm-")

    def test_fingerprint_tracks_fitted_content(self):
        a = CostModel.fit(
            rows_for("relax", OpLaw(coeff=2e-9, exponent=1.1)), INTEL_HARPERTOWN
        )
        b = CostModel.fit(
            rows_for("relax", OpLaw(coeff=4e-9, exponent=1.1)), INTEL_HARPERTOWN
        )
        assert a.fingerprint() != b.fingerprint()


class TestModelPricedTiming:
    def test_unfitted_model_prices_like_its_base(self, any_profile):
        # Profile and model answer the same op_seconds(op, n) question;
        # a model with nothing fitted gives its base profile's answer.
        model = CostModel(base=any_profile)
        for op in OPS:
            for n in (9, 33, 129):
                assert model.op_seconds(op, n) == pytest.approx(
                    any_profile.op_seconds(op, n), rel=1e-12
                )

    def test_calibration_scales_the_timing_price(self, any_profile):
        meter = OpMeter()
        meter.charge("relax", 33, 4)
        meter.charge("residual", 65, 2)
        meter.charge("direct", 9)
        scaled = CostModelTiming(CostModel(base=any_profile, calibration=3.0))
        assert scaled.price(meter) == pytest.approx(
            3.0 * CostModelTiming(any_profile).price(meter), rel=1e-12
        )

    def test_prices_through_model_and_keeps_base_profile(self):
        model = CostModel.fit(
            rows_for("relax", OpLaw(coeff=5e-9, exponent=1.0)), INTEL_HARPERTOWN
        )
        timing = CostModelTiming(model)
        # Plan metadata names the model's base profile.
        assert timing.pricing is model
        assert timing.profile is INTEL_HARPERTOWN
        assert timing.op_seconds("relax", 33) == pytest.approx(
            model.op_seconds("relax", 33)
        )
        meter = OpMeter()
        meter.charge("relax", 33, 7)
        assert timing.time_candidate(meter, None, None) == pytest.approx(
            7 * model.op_seconds("relax", 33)
        )

    def test_predictions_always_finite_positive(self):
        model = CostModel.fit([], INTEL_HARPERTOWN)
        for op in model.known_ops():
            value = model.op_seconds(op, 65)
            assert math.isfinite(value) and value > 0.0
        # Unknown ops fall to the clamp floor instead of raising.
        value = model.op_seconds("no-such-op", 65)
        assert math.isfinite(value) and value > 0.0
