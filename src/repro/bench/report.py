"""Text tables and series for experiment output.

The paper's figures are line plots; the harness reproduces them as aligned
text tables (one row per x value, one column per series) so runs are
diffable and greppable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.util import format_table

__all__ = ["Series", "format_ratio_table", "format_series_table"]


@dataclass
class Series:
    """One plotted line: a name and y-values aligned with shared x-values."""

    name: str
    values: list[float | None] = field(default_factory=list)

    def add(self, value: float | None) -> None:
        self.values.append(value)


def _fmt(value: float | None, width: int, precision: int) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.{precision}e}".rjust(width)


def format_series_table(
    x_label: str,
    xs: Sequence[object],
    series: Sequence[Series],
    precision: int = 3,
) -> str:
    """Table with one row per x and one numeric column per series."""
    for s in series:
        if len(s.values) != len(xs):
            raise ValueError(
                f"series {s.name!r} has {len(s.values)} values for {len(xs)} x's"
            )
    headers = [x_label] + [s.name for s in series]
    width = precision + 7
    rows = []
    for i, x in enumerate(xs):
        rows.append([str(x)] + [_fmt(s.values[i], width, precision) for s in series])
    return format_table(headers, rows)


def format_ratio_table(
    x_label: str,
    xs: Sequence[object],
    baseline: Series,
    series: Sequence[Series],
    precision: int = 3,
) -> str:
    """Each series divided by the baseline (the paper's 'relative time')."""
    ratio_series = []
    for s in series:
        ratios = []
        for val, base in zip(s.values, baseline.values):
            if val is None or base is None or base == 0:
                ratios.append(None)
            else:
                ratios.append(val / base)
        ratio_series.append(Series(name=s.name, values=ratios))
    return format_series_table(x_label, xs, ratio_series, precision)
