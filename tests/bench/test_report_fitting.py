"""Tests for report formatting and power-law fitting."""

import numpy as np
import pytest

from repro.bench.fitting import fit_power_law
from repro.bench.report import Series, format_ratio_table, format_series_table
from repro.util import format_table


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 44]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        widths = [len(line) for line in lines]
        assert len(set(widths)) == 1  # all rows aligned


class TestSeriesTable:
    def test_values_rendered(self):
        s = Series("t", [1.0, 2.0])
        text = format_series_table("N", [5, 9], [s])
        assert "1.000e+00" in text and "2.000e+00" in text

    def test_none_rendered_as_dash(self):
        s = Series("t", [1.0, None])
        text = format_series_table("N", [5, 9], [s])
        assert "-" in text.splitlines()[-1]

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError):
            format_series_table("N", [5, 9], [Series("t", [1.0])])

    def test_ratio_table(self):
        base = Series("base", [2.0, 4.0])
        other = Series("x", [4.0, 4.0])
        text = format_ratio_table("N", [5, 9], base, [base, other])
        # base/base = 1, x/base = 2 then 1.
        assert "1.000e+00" in text and "2.000e+00" in text

    def test_ratio_handles_zero_baseline(self):
        base = Series("base", [0.0])
        other = Series("x", [4.0])
        text = format_ratio_table("N", [5], base, [other])
        assert "-" in text.splitlines()[-1]


class TestPowerLawFit:
    def test_recovers_exact_exponent(self):
        ns = [10.0, 100.0, 1000.0]
        ts = [3.0 * n**1.5 for n in ns]
        fit = fit_power_law(ns, ts)
        assert fit.exponent == pytest.approx(1.5, abs=1e-9)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_power_law([10.0, 100.0], [10.0, 1000.0])
        assert fit.predict(1000.0) == pytest.approx(1e5, rel=1e-6)

    def test_noise_tolerated(self):
        rng = np.random.default_rng(1)
        ns = np.logspace(1, 4, 12)
        ts = 2.0 * ns**2 * np.exp(rng.normal(0, 0.05, 12))
        fit = fit_power_law(ns, ts)
        assert fit.exponent == pytest.approx(2.0, abs=0.15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0])
