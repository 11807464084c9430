"""Tests for op metering."""

import pytest

from repro.machines.meter import OpMeter


class TestOpMeter:
    def test_charge_and_total(self):
        m = OpMeter()
        m.charge("relax", 33, 3)
        m.charge("relax", 17)
        m.charge("direct", 3)
        assert m.total("relax") == 4
        assert m.total("direct") == 1
        assert m.counts[("relax", 33)] == 3

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            OpMeter().charge("fft", 33)

    def test_zero_times_is_noop(self):
        m = OpMeter()
        m.charge("relax", 33, 0)
        assert len(m) == 0

    def test_merge(self):
        a = OpMeter()
        a.charge("relax", 33, 2)
        b = OpMeter()
        b.charge("relax", 33, 1)
        b.charge("restrict", 33)
        a.merge(b)
        assert a.counts[("relax", 33)] == 3
        assert a.counts[("restrict", 33)] == 1

    def test_merge_times(self):
        a = OpMeter()
        b = OpMeter()
        b.charge("relax", 17, 2)
        a.merge(b, times=5)
        assert a.counts[("relax", 17)] == 10

    def test_scaled_leaves_original(self):
        a = OpMeter()
        a.charge("direct", 9)
        s = a.scaled(4)
        assert s.counts[("direct", 9)] == 4
        assert a.counts[("direct", 9)] == 1

    def test_equality(self):
        a = OpMeter()
        b = OpMeter()
        a.charge("relax", 9)
        b.charge("relax", 9)
        assert a == b
        b.charge("norm", 9)
        assert a != b

    def test_price_is_a_plain_left_to_right_sum(self):
        # A compensated sum (the builtin ``sum`` from Python 3.12 on)
        # would return 1.0 here; every pricing must round alike on every
        # interpreter, so the loop's 0.0 is pinned.
        meter = OpMeter()
        meter.charge("relax", 9)
        meter.charge("norm", 9)
        meter.charge("copy", 9)
        seconds = {"relax": 1e16, "norm": 1.0, "copy": -1e16}
        assert meter.price(lambda op, n: seconds[op]) == 0.0
