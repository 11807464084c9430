"""Byte identity of the heuristic strategies (the ``candidate_filter`` path).

``tune_heuristic`` runs the V-cycle DP with a filter that cuts each
slot's candidates down to {direct, RECURSE_x}.  The digests in
``heuristic_digests.json`` are SHA-256 of the plan JSON of L5 tunes for
two strategies — Strategy 10^5/10^9 with the direct cutoff left to cost,
and Strategy 10^9 with the direct call pinned through level 3 — over
two operator families and two kernel backends.  Any change to the DP
loop must reproduce them exactly.

Regenerate (only when a change is *meant* to alter heuristic plans)::

    python tests/tuner/test_heuristic_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.machines.presets import INTEL_HARPERTOWN
from repro.tuner.config import plan_to_dict
from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData

DIGEST_FILE = Path(__file__).parent / "heuristic_digests.json"
LEVEL = 5

#: name -> (strategy, force_direct_max_level)
STRATEGIES = {
    "10^5/10^9": (HeuristicStrategy(sub_index=2, final_index=4), None),
    "10^9-direct3": (HeuristicStrategy(sub_index=4, final_index=4), 3),
}

CASES = [
    (name, operator, backend)
    for name in STRATEGIES
    for operator in ("poisson", "anisotropic")
    for backend in ("numpy", "cnative")
]


def case_id(name: str, operator: str, backend: str) -> str:
    return f"{name}/{operator}/{backend}/L{LEVEL}"


def heuristic_digest(name: str, operator: str, backend: str) -> str:
    strategy, force_direct = STRATEGIES[name]
    plan = tune_heuristic(
        strategy,
        max_level=LEVEL,
        accuracies=DEFAULT_ACCURACIES,
        training=TrainingData(instances=3, seed=0, operator=operator),
        timing=CostModelTiming(INTEL_HARPERTOWN),
        force_direct_max_level=force_direct,
        backend=backend,
    )
    text = json.dumps(plan_to_dict(plan), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,operator,backend", CASES)
def test_heuristic_plan_is_unchanged(name, operator, backend):
    expected = json.loads(DIGEST_FILE.read_text())
    key = case_id(name, operator, backend)
    assert heuristic_digest(name, operator, backend) == expected[key], key


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_heuristic_digests.py --write")
    digests = {case_id(*case): heuristic_digest(*case) for case in CASES}
    DIGEST_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
