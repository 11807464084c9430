"""The latency histogram primitive."""

import pytest

from repro.obs.metrics import Histogram, default_bounds


class TestPrimitives:
    def test_histogram_percentiles_bracket_samples(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004, 0.1):
            h.record(v)
        assert h.count == 4
        assert h.sum == pytest.approx(0.107)
        assert 0.0005 <= h.percentile(0.5) <= 0.004
        assert h.percentile(0.99) <= h.max * 1.34  # within one bucket width
        with pytest.raises(ValueError):
            h.record(-0.1)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(0.2, 0.1))

    def test_default_bounds_are_sorted_geometric(self):
        bounds = default_bounds()
        assert list(bounds) == sorted(bounds)
        assert bounds[0] > 1e-6 / 2 and bounds[-1] > 100.0
