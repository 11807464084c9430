"""Property-based tests for op meters, pricing and the Pareto front."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.meter import OPS, OpMeter
from repro.machines.presets import INTEL_HARPERTOWN
from repro.tuner.choices import DirectChoice
from repro.tuner.pareto import ChoiceChain, ParetoPoint, pareto_front

charges = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.sampled_from([3, 5, 9, 17, 33]),
        st.integers(1, 5),
    ),
    max_size=12,
)


def build_meter(items) -> OpMeter:
    m = OpMeter()
    for op, n, times in items:
        m.charge(op, n, times)
    return m


class TestMeterProperties:
    @given(a=charges, b=charges)
    @settings(max_examples=40, deadline=None)
    def test_merge_commutative(self, a, b):
        m1 = build_meter(a)
        m1.merge(build_meter(b))
        m2 = build_meter(b)
        m2.merge(build_meter(a))
        assert m1 == m2

    @given(a=charges, k=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_scaled_equals_repeated_merge(self, a, k):
        base = build_meter(a)
        scaled = base.scaled(k)
        merged = OpMeter()
        for _ in range(k):
            merged.merge(base)
        assert scaled == merged

    @given(a=charges, b=charges)
    @settings(max_examples=40, deadline=None)
    def test_price_additive(self, a, b):
        ma, mb = build_meter(a), build_meter(b)
        both = OpMeter()
        both.merge(ma)
        both.merge(mb)
        p = INTEL_HARPERTOWN.price
        assert p(both) == pytest.approx(p(ma) + p(mb), rel=1e-12)

    @given(a=charges, k=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_price_homogeneous(self, a, k):
        m = build_meter(a)
        p = INTEL_HARPERTOWN.price
        assert p(m.scaled(k)) == pytest.approx(k * p(m), rel=1e-12)


points = st.lists(
    st.tuples(st.floats(0.1, 100.0), st.floats(1.0, 1e12)), min_size=0, max_size=30
)


class TestParetoFrontProperties:
    @given(raw=points)
    @settings(max_examples=50, deadline=None)
    def test_front_is_subset_and_nondominated(self, raw):
        pts = [
            ParetoPoint(ChoiceChain((DirectChoice(),)), s, a) for s, a in raw
        ]
        front = pareto_front(pts)
        assert all(p in pts for p in front)
        for p in front:
            for q in pts:
                strictly_better = (
                    q.seconds <= p.seconds
                    and q.accuracy >= p.accuracy
                    and (q.seconds < p.seconds or q.accuracy > p.accuracy)
                )
                assert not strictly_better

    @given(raw=points, cap=st.integers(2, 6))
    @settings(max_examples=50, deadline=None)
    def test_cap_respected_and_keeps_extremes(self, raw, cap):
        pts = [
            ParetoPoint(ChoiceChain((DirectChoice(),)), s, a) for s, a in raw
        ]
        full = pareto_front(pts)
        capped = pareto_front(pts, max_size=cap)
        assert len(capped) <= max(cap, 2) or len(capped) <= len(full)
        if full:
            assert capped[0] == full[0]
            assert capped[-1] == full[-1]
