"""Figure 9: parallel speedup of the tuned solver, 1..8 worker threads.

Paper: near-linear speedup flattening toward 8 threads on the 8-core
Xeon.  Reproduced with the virtual-time work-stealing scheduler over the
tuned plan's task graph (see README, "Experiments", substitutions: a
one- or two-core host cannot show 8-thread wall-clock speedup).
"""

import pytest

from repro.bench.experiments import fig9_parallel_scaling


@pytest.fixture(scope="module")
def result():
    return fig9_parallel_scaling(max_level=7, machine="intel", max_threads=8)


def test_fig9_regenerate(benchmark, result, write_artifact):
    benchmark.pedantic(
        lambda: fig9_parallel_scaling(max_level=5, max_threads=4),
        rounds=1,
        iterations=1,
    )
    write_artifact("fig9_parallel_scaling", result.format())


def test_speedup_monotone_nondecreasing(result):
    for a, b in zip(result.speedups, result.speedups[1:]):
        assert b >= a * 0.98


def test_speedup_meaningful_at_8_threads(result):
    assert result.speedups[-1] > 2.5


def test_speedup_sublinear(result):
    for threads, speedup in zip(result.threads, result.speedups):
        assert speedup <= threads + 1e-9


def test_diminishing_returns(result):
    # The increment from 7->8 threads must not exceed the 1->2 increment
    # (concavity of the curve, the paper's flattening).
    first_gain = result.speedups[1] - result.speedups[0]
    last_gain = result.speedups[-1] - result.speedups[-2]
    assert last_gain <= first_gain + 1e-9
