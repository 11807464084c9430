"""Plan traces are the executed op order.

``plan.trace(level, acc_index)`` reads the event sequence of one call off
the plan's table.  The digests in ``plan_trace_digests.json`` were taken
from an executor that recorded its events while it ran, for every
(level, accuracy) slot of V and full-MG plans tuned to level 5 on three
machine profiles and both training distributions (300 sequences); the
plans must reproduce them exactly.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.tuner.spec import tune_pair
from repro.machines.presets import get_preset

DIGESTS = json.loads((Path(__file__).parent / "plan_trace_digests.json").read_text())


def digest(events) -> str:
    text = "\n".join(f"{e.kind} {e.level} {e.detail}" for e in events)
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=None)
def plans(machine: str, distribution: str):
    vplan, fplan = tune_pair(5, get_preset(machine), distribution, 0)
    return {"v": vplan, "full": fplan}


def slots(machine: str, distribution: str):
    for kind, plan in plans(machine, distribution).items():
        for level in range(1, 6):
            for acc in range(plan.num_accuracies):
                yield f"{machine}/{distribution}/{kind}/{level}/{acc}", plan, level, acc


MACHINES = pytest.mark.parametrize("machine", ["intel", "amd", "sun"])
DISTRIBUTIONS = pytest.mark.parametrize("distribution", ["unbiased", "biased"])


@DISTRIBUTIONS
@MACHINES
def test_plan_traces_match_executed_digests(machine, distribution):
    for key, plan, level, acc in slots(machine, distribution):
        assert digest(plan.trace(level, acc)) == DIGESTS[key], key


@DISTRIBUTIONS
@MACHINES
def test_trace_agrees_with_unit_meter(machine, distribution):
    # Trace and meter are two readings of one table: every priced op
    # appears as its event, and every event is a priced op.
    for key, plan, level, acc in slots(machine, distribution):
        events = plan.trace(level, acc)
        meter = plan.unit_meter(level, acc)
        count = {kind: sum(e.kind == kind for e in events) for kind in
                 ("direct", "relax", "descend", "ascend", "enter", "exit")}
        sweeps = count["relax"] + sum(e.detail for e in events if e.kind == "sor")
        assert count["direct"] == meter.total("direct"), key
        assert sweeps == meter.total("relax"), key
        assert count["descend"] == meter.total("restrict") == meter.total("residual"), key
        assert count["ascend"] == meter.total("interpolate") == count["descend"], key
        assert count["enter"] == count["exit"], key


def test_digest_table_covers_every_slot():
    assert len(DIGESTS) == 3 * 2 * 2 * 5 * 5
