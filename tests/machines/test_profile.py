"""Tests for machine cost models and presets."""

import pytest

from repro.machines.meter import OpMeter
from repro.machines.presets import (
    AMD_BARCELONA,
    INTEL_HARPERTOWN,
    PRESETS,
    SUN_NIAGARA,
    get_preset,
)


class TestStencilPricing:
    def test_cost_grows_with_size(self, any_profile):
        times = [any_profile.stencil_time("relax", n) for n in (9, 17, 33, 65, 129)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_overhead_floors_small_sizes(self, any_profile):
        assert any_profile.stencil_time("norm", 3) >= any_profile.op_overhead

    def test_threads_do_not_slow_large_ops(self, any_profile):
        serial = any_profile.stencil_time("relax", 513, threads=1)
        parallel = any_profile.stencil_time("relax", 513, threads=any_profile.cores)
        assert parallel <= serial

    def test_tiny_grids_get_no_parallel_benefit(self, any_profile):
        serial = any_profile.stencil_time("relax", 5, threads=1)
        parallel = any_profile.stencil_time("relax", 5, threads=8)
        assert parallel == pytest.approx(serial, rel=0.05)

    def test_unknown_op_rejected(self, any_profile):
        with pytest.raises(KeyError):
            any_profile.stencil_time("fft", 9)


class TestDirectPricing:
    def test_quartic_growth(self, any_profile):
        # Doubling N should multiply the direct cost by roughly 16 once
        # overhead is negligible.
        t1 = any_profile.direct_time(129)
        t2 = any_profile.direct_time(257)
        assert 8.0 < t2 / t1 < 32.0

    def test_cached_cheaper(self, any_profile):
        assert any_profile.direct_time(65, cached=True) < any_profile.direct_time(65)

    def test_op_seconds_dispatch(self, any_profile):
        assert any_profile.op_seconds("direct", 33) == any_profile.direct_time(33)
        assert any_profile.op_seconds("direct_solve", 33) == any_profile.direct_time(
            33, cached=True
        )
        assert any_profile.op_seconds("relax", 33) == any_profile.stencil_time("relax", 33)


class TestPrice:
    def test_price_is_linear_in_counts(self, any_profile):
        m1 = OpMeter()
        m1.charge("relax", 33, 2)
        m2 = m1.scaled(3)
        assert any_profile.price(m2) == pytest.approx(3 * any_profile.price(m1))

    def test_price_sums_ops(self, any_profile):
        m = OpMeter()
        m.charge("relax", 33)
        m.charge("direct", 9)
        expected = any_profile.op_seconds("relax", 33) + any_profile.op_seconds("direct", 9)
        assert any_profile.price(m) == pytest.approx(expected)


class TestPresets:
    def test_lookup(self):
        assert get_preset("intel") is INTEL_HARPERTOWN
        assert get_preset("amd-barcelona") is AMD_BARCELONA

    def test_host_preset_resolves(self):
        # The CLI help advertises --machine host; it must resolve.
        assert get_preset("host").name == "host-fallback"
        assert get_preset("host-fallback") is get_preset("host")

    def test_unknown_preset_raises_valueerror_listing_presets(self):
        with pytest.raises(ValueError) as exc:
            get_preset("cray")
        message = str(exc.value)
        assert "cray" in message
        for name in ("intel", "amd", "sun", "host"):
            assert name in message

    def test_registry_complete(self):
        assert {"intel", "amd", "sun", "host"} <= set(PRESETS)

    def test_architectural_contrast_dense_vs_stream(self):
        # The Niagara's weak FPU must make direct solves *relatively* more
        # expensive vs relaxation than on the Xeon — the mechanism behind
        # the different tuned cycles of Figure 14.
        n = 33
        intel_ratio = INTEL_HARPERTOWN.direct_time(n) / INTEL_HARPERTOWN.stencil_time(
            "relax", n
        )
        sun_ratio = SUN_NIAGARA.direct_time(n) / SUN_NIAGARA.stencil_time("relax", n)
        assert sun_ratio > 2.0 * intel_ratio

    def test_niagara_threads(self):
        assert SUN_NIAGARA.cores == 32
