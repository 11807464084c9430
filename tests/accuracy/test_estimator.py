"""Tests for iterations-to-accuracy estimation on synthetic contractions."""

import numpy as np
import pytest

from repro.accuracy.estimator import InfeasibleCandidate, Trajectories


def _contraction_setup(factors):
    """Instances whose error halves (etc.) per step: x holds the error norm
    in cell (1,1); a step multiplies it by its factor."""
    starts = []
    fns = []
    for f in factors:
        x = np.zeros((3, 3))
        x[1, 1] = 1.0
        b = np.full((3, 3), f)
        starts.append((x, b))

        def acc(grid):
            v = abs(grid[1, 1])
            return np.inf if v == 0 else 1.0 / v

        fns.append(acc)
    return starts, fns


def _step(x, b):
    x[1, 1] *= b[1, 1]


class TestIterationsToAccuracy:
    # Contraction factors are powers of two so step counts are exact in
    # binary floating point.

    def test_exact_count_single_instance(self):
        starts, fns = _contraction_setup([0.5])
        # Error 2x down per step; accuracy 8 needs exactly 3 steps.
        assert Trajectories(_step, starts, fns).iterations(8.0, 50) == 3

    def test_max_aggregate_takes_worst(self):
        starts, fns = _contraction_setup([0.25, 0.5])
        # 4^s >= 256 needs 4 steps; 2^s >= 256 needs 8.
        assert Trajectories(_step, starts, fns).iterations(256.0, 50, "max") == 8

    def test_median_aggregate(self):
        starts, fns = _contraction_setup([0.25, 0.25, 0.5])
        assert Trajectories(_step, starts, fns).iterations(256.0, 50, "median") == 4

    def test_mean_aggregate_rounds_up(self):
        starts, fns = _contraction_setup([0.25, 0.5])
        # 128: 4 steps at 0.25, 7 steps at 0.5 -> mean 5.5 -> 6.
        assert Trajectories(_step, starts, fns).iterations(128.0, 50, "mean") == 6

    def test_zero_iterations_when_already_there(self):
        starts, fns = _contraction_setup([0.5])
        starts[0][0][1, 1] = 1e-9  # already accurate
        assert Trajectories(_step, starts, fns).iterations(1e3, 50) == 0

    def test_infeasible_raises(self):
        starts, fns = _contraction_setup([1.0])  # no progress
        with pytest.raises(InfeasibleCandidate) as exc:
            Trajectories(_step, starts, fns).iterations(1e3, max_iters=7)
        assert exc.value.iterations_tried == 7

    def test_misaligned_inputs_rejected(self):
        starts, fns = _contraction_setup([0.5, 0.5])
        with pytest.raises(ValueError):
            Trajectories(_step, starts, fns[:1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectories(_step, [], [])

    def test_bad_max_iters_rejected(self):
        starts, fns = _contraction_setup([0.5])
        with pytest.raises(ValueError):
            Trajectories(_step, starts, fns).iterations(1e3, 0)

    def test_unknown_aggregate_rejected(self):
        starts, fns = _contraction_setup([0.5])
        with pytest.raises(ValueError):
            Trajectories(_step, starts, fns).iterations(1e3, 50, "p99")


def _fresh_answer(factors, target, cap):
    starts, fns = _contraction_setup(factors)
    try:
        return Trajectories(_step, starts, fns).iterations(target, cap)
    except InfeasibleCandidate as exc:
        return ("infeasible", exc.iterations_tried)


def _counting_step(counts):
    """_step that counts applications per instance (keyed by its b)."""

    def step(x, b):
        counts[id(b)] = counts.get(id(b), 0) + 1
        _step(x, b)

    return step


class TestTrajectories:
    FACTORS = [0.5, 0.25, 0.5]
    QUERIES = [(2.0**k, cap) for k in (0, 1, 3, 6, 9, 12) for cap in (1, 4, 7, 12, 20)]

    @pytest.mark.parametrize("order", ["increasing", "decreasing", "mixed"])
    def test_every_query_matches_a_fresh_run(self, order):
        queries = sorted(self.QUERIES)
        if order == "decreasing":
            queries.reverse()
        elif order == "mixed":
            # Alternate between the two ends of the sorted queries.
            queries = [
                queries[i // 2] if i % 2 == 0 else queries[-1 - i // 2]
                for i in range(len(queries))
            ]
        starts, fns = _contraction_setup(self.FACTORS)
        runs = Trajectories(_step, starts, fns)
        for target, cap in queries:
            try:
                got = runs.iterations(target, cap)
            except InfeasibleCandidate as exc:
                got = ("infeasible", exc.iterations_tried)
            assert got == _fresh_answer(self.FACTORS, target, cap), (target, cap)

    def test_smaller_cap_after_longer_run_is_infeasible(self):
        starts, fns = _contraction_setup([0.5])
        runs = Trajectories(_step, starts, fns)
        assert runs.iterations(2.0**8, 20) == 8
        with pytest.raises(InfeasibleCandidate) as exc:
            runs.iterations(2.0**8, 5)
        assert exc.value.iterations_tried == 5
        assert runs.iterations(2.0**8, 8) == 8

    def test_steps_stop_at_each_querys_cap(self):
        counts = {}
        starts, fns = _contraction_setup([0.5])
        runs = Trajectories(_counting_step(counts), starts, fns)
        # (target exponent, cap, total steps on the instance afterwards):
        # a query steps only as far as its crossing or its cap, and the
        # run is extended only past the longest query before it.
        for k, cap, total in [(3, 10, 3), (8, 5, 5), (6, 20, 6), (2, 1, 6), (12, 30, 12)]:
            try:
                runs.iterations(2.0**k, cap)
            except InfeasibleCandidate:
                pass
            assert sum(counts.values()) == total, (k, cap)

    def test_first_query_applies_the_fresh_runs_steps(self):
        # Each instance is stepped to its crossing or to the cap; an
        # infeasible instance stops the query there, and instances after
        # it are not stepped.
        for factors, target, cap, steps in [
            ([0.5, 1.0, 0.5], 64.0, 9, [6, 9]),
            ([0.5, 0.25], 256.0, 20, [4, 8]),
        ]:
            counts = {}
            starts, fns = _contraction_setup(factors)
            try:
                Trajectories(_counting_step(counts), starts, fns).iterations(target, cap)
            except InfeasibleCandidate:
                pass
            assert sorted(counts.values()) == steps

    def test_crossing_at_step_zero_is_zero(self):
        counts = {}
        starts, fns = _contraction_setup([0.5])
        starts[0][0][1, 1] = 1e-9  # already accurate
        runs = Trajectories(_counting_step(counts), starts, fns)
        assert runs.iterations(1e3, 50) == 0
        assert runs.iterations(1e3, 1) == 0
        assert counts == {}
