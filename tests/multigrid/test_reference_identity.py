"""Golden hashes for the paper's reference algorithms.

The reference V and full-MG solvers, iterated SOR, the multigrid path of
``reference_solution`` and the full-DP (Pareto) ablation all run as fixed
plans on the plan executor.  These hashes pin their outputs — solution
bytes, iteration counts, op-meter counts and the Pareto sets' priced
seconds and worst-case accuracies — so the one engine cannot drift from
the numbers the baselines have always produced.  Like the other golden
hashes in the suite they assume the linux/x86-64 toolchain CI uses.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.accuracy.reference import reference_solution
from repro.core.api import solve_reference
from repro.tuner.pareto import ParetoTuner
from repro.workloads.distributions import make_problem

#: sha256 of ``reference_solution`` bytes with ``direct_cutoff=3``, which
#: forces the full-MG + V-cycles-to-stagnation path at every size here.
REFERENCE_GOLDEN = {
    ("poisson", 65): "88ca3486a1830645d9d6d68a656ce1c9e6461bc7373461f8ccfb2bba79036ae7",
    ("anisotropic", 65): "e9c27d20863b8479837fa65436a973b0cf3d8fde3765eed365a7cbe869081247",
    ("varcoeff", 65): "8b7562f13d620545b16272eb90496468aa867323b7c945af66acc7663e924aa0",
    ("poisson3d", 33): "6fd8d698655cbff6c3523c28c0b9be8de90d1c3c417c7144bf23cf0e4e66483a",
}

#: sha256 over (solution bytes, iteration count, meter counts) of
#: ``solve_reference`` to accuracy 1e5.
SOLVE_REFERENCE_GOLDEN = {
    ("poisson", 33, "v"): "25d443458f76c4df569a7b30a5ca9e41014789dacf5018559ecd38d80d337846",
    ("poisson", 33, "full-mg"): (
        "0770b63e31e739d811fbe27faa2959ef50ce4d8fd513760ac66184bae404f50f"
    ),
    ("poisson", 33, "sor"): "0b678fa501d0b1b08f44bc9b0a40bf1fb6bebed91b146cc95e0b6f6eefad8687",
    ("varcoeff", 33, "v"): "253ed605976ccd94ece73f069699465c2accd4571c31e0ecd51a5567dcfafe57",
    ("varcoeff", 33, "full-mg"): (
        "0bbac232707141e5fe54f5c0beb7b5cf746e0e03c9543fe6b067355edc38067a"
    ),
    ("varcoeff", 33, "sor"): "560d594599c7d3fe81f11854b06015aa29238074f79667546cd87d6607b67662",
    ("poisson3d", 17, "v"): "c0ad2816c1bac9b1afed9b4f3059f49ba37e15ab56b4007ea1f87461a8ef9edf",
    ("poisson3d", 17, "full-mg"): (
        "6eab58e61b8403c74b56fdde6bbadc2d4ca55bf376f70cea928d9c65e077b0dd"
    ),
    ("poisson3d", 17, "sor"): (
        "f11ff6b958c3a6a315fb75612fac5c0677e6d9c645df61b560c8cccea6481a77"
    ),
}

#: sha256 of the ``(level, describe, seconds, accuracy)`` rows of a
#: default ``ParetoTuner(max_level=4)``.
PARETO_GOLDEN = "4e13821b592cd099a604158a141335cc48f1f849a1a2d88c2fbed77086918aed"


def _sha_bytes(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _meter_json(meter) -> bytes:
    rows = sorted([op, n, count] for (op, n), count in meter.counts.items())
    return json.dumps(rows, separators=(",", ":")).encode()


@pytest.mark.parametrize("operator,n", sorted(REFERENCE_GOLDEN))
def test_reference_solution_multigrid_path(operator, n):
    problem = make_problem("unbiased", n, seed=17, operator=operator)
    x = reference_solution(problem, direct_cutoff=3)
    digest = _sha_bytes(np.ascontiguousarray(x).tobytes())
    assert digest == REFERENCE_GOLDEN[(operator, n)]


@pytest.mark.parametrize("operator,n,method", sorted(SOLVE_REFERENCE_GOLDEN))
def test_solve_reference(operator, n, method):
    problem = make_problem("biased", n, seed=29, operator=operator)
    x, meter, iters = solve_reference(problem, 1e5, method)
    digest = _sha_bytes(
        np.ascontiguousarray(x).tobytes(), str(iters).encode(), _meter_json(meter)
    )
    assert digest == SOLVE_REFERENCE_GOLDEN[(operator, n, method)]


def test_pareto_sets():
    sets = ParetoTuner(max_level=4).tune()
    rows = [
        [level, p.algorithm.describe(), repr(p.seconds), repr(p.accuracy)]
        for level in sorted(sets)
        for p in sets[level]
    ]
    digest = _sha_bytes(json.dumps(rows, separators=(",", ":")).encode())
    assert digest == PARETO_GOLDEN
