"""Pinned ``cm-`` fingerprints of fitted cost models.

Stored ``model_artifacts`` rows and fleet workers find a model by its
fingerprint, so the serialized payload it hashes must never move: not
when the pricing interface changes, and not for payloads written by
earlier releases.
"""

import json

from repro.machines.presets import INTEL_HARPERTOWN, SUN_NIAGARA
from repro.modeltuner.costmodel import CostModel


def _fitted() -> CostModel:
    rows = [
        {"op": "relax", "n": n, "seconds": 1e-6 * n * n / 100, "weight": 1.0}
        for n in (17, 33, 65)
    ]
    rows.append({"op": "direct", "n": 33, "seconds": 2e-3, "weight": 2.0})
    return CostModel.fit(rows, SUN_NIAGARA)


def test_unfitted_model_golden():
    assert CostModel(base=INTEL_HARPERTOWN).fingerprint() == "cm-8c5d5bbc88e02fc4"


def test_fitted_model_golden():
    assert _fitted().fingerprint() == "cm-8b2b3c507e74c9a3"


def test_payload_with_null_threads_round_trips():
    payload = json.loads(_fitted().to_json())
    assert payload["threads"] is None
    clone = CostModel.from_json(json.dumps(payload))
    assert clone.fingerprint() == "cm-8b2b3c507e74c9a3"
    assert clone.to_json() == _fitted().to_json()
