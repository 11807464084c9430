"""Pinned paper-figure output: priced seconds and rendered cycles.

``paper_pin.json`` holds the ``repr()`` of every priced number the
figure drivers produce at smoke size (``max_level=4``, seed 0, one
held-out draw), plus fig 7 at its default level 7 and fig 10 at level 6,
and the exact text of the fig 4 / 5 / 14 cycle renders at smoke and at
default size.  Ablations return formatted tables, so their text is
pinned.  The expected file never changes when the drivers are rewritten:
only the functions below that produce the values do.
"""

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
import paper_figures as pf  # noqa: E402

PIN = json.loads((Path(__file__).parent / "paper_pin.json").read_text())


def _reprs(values):
    return [repr(float(v)) for v in values]


def _series(rows):
    return {name: _reprs(values) for name, values in pf.priced_series(rows).items()}


def _fig10(max_level, distribution, target, instances):
    rows = pf.fig10_13(max_level, "intel", distribution, target, draws=instances, reps=1)
    return {
        "series": _series(rows),
        "speedup_at_top": {k: repr(v) for k, v in pf.speedup_at_top(rows).items()},
    }


@lru_cache(maxsize=None)
def priced_values() -> dict:
    """Every pinned priced number, as ``repr`` strings."""
    t1 = pf.table1(max_level=4, reps=1)
    fig6 = pf.fig6(max_level=4, draws=1, reps=1)
    achieved = {}
    for cell in pf.cells(fig6):
        achieved.setdefault(cell["algorithm"], []).append(cell["accuracy"])
    out = {
        "table1": {
            "times": _series(t1),
            "fits": {
                k: _reprs([f.exponent, f.coefficient, f.r_squared])
                for k, f in pf.table1_fits(t1).items()
            },
        },
        "fig6": {
            "series": _series(fig6),
            "achieved": {k: _reprs(achieved[k]) for k in ("SOR", "Multigrid", "Autotuned")},
        },
        "fig7_L4": _series(pf.fig7(max_level=4, reps=1, families=("poisson",))),
        "fig7_L7": _series(pf.fig7(max_level=7, reps=1, families=("poisson",))),
        "fig10_L6_unbiased_1e5": _fig10(6, "unbiased", 1e5, 2),
        "cross_architecture": [
            [trained, run, repr(pct)]
            for trained, run, pct in pf.cross_penalties(
                pf.cross_arch(max_level=4, reps=1, draws=1)
            )
        ],
    }
    for dist in ("unbiased", "biased"):
        for target in (1e5, 1e9):
            out[f"fig10_L4_{dist}_{target:g}"] = _fig10(4, dist, target, 1)
    return out


@lru_cache(maxsize=None)
def rendered_texts() -> dict:
    """The pinned text outputs."""
    return {
        "fig4_L4": pf.sections(pf.fig4(max_level=4)),
        "fig4_L7": pf.sections(pf.fig4(max_level=7)),
        "fig5_L4": pf.sections(pf.fig5(max_level=4)),
        "fig5_L6": pf.sections(pf.fig5(max_level=6)),
        "fig14_L4": pf.sections(pf.fig14(max_level=4)),
        "fig14_L6": pf.sections(pf.fig14(max_level=6)),
        "ablation_ladder": pf.ablation_ladder(max_level=4),
        "ablation_distribution": pf.ablation_distribution(max_level=4, draws=1),
        "ablation_smoother": pf.ablation_smoother(level=4),
        "ablation_caching": pf.ablation_caching(max_level=4),
        "ablation_pareto": pf.ablation_pareto(max_level=4),
    }


@pytest.mark.parametrize("name", sorted(PIN["priced"]))
def test_priced_numbers_match_pin(name):
    assert priced_values()[name] == PIN["priced"][name]


@pytest.mark.parametrize("name", sorted(PIN["text"]))
def test_rendered_text_matches_pin(name):
    assert rendered_texts()[name] == PIN["text"][name]


def test_pin_covers_every_output():
    assert set(priced_values()) == set(PIN["priced"])
    assert set(rendered_texts()) == set(PIN["text"])
