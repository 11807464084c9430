"""Iterations-to-accuracy estimation on training data.

The autotuner "first computes the number of iterations needed for the SOR
and RECURSE_j choices before determining which is the fastest option to
attain accuracy p_i" (section 4.1).  This module runs a candidate step on
each training instance once, recording the accuracy after every step, and
reads off how many applications each accuracy target needs, aggregated
across instances.
"""

from __future__ import annotations

import math
from typing import Callable, Literal, Sequence

import numpy as np

__all__ = ["InfeasibleCandidate", "Trajectories"]

Aggregate = Literal["max", "median", "mean"]

StepFn = Callable[[np.ndarray, np.ndarray], None]


class InfeasibleCandidate(Exception):
    """A candidate could not reach the accuracy target within its budget."""

    def __init__(self, message: str, iterations_tried: int) -> None:
        super().__init__(message)
        self.iterations_tried = iterations_tried


def _aggregate(values: Sequence[int], how: Aggregate) -> int:
    if how == "max":
        return max(values)
    if how == "median":
        ordered = sorted(values)
        return ordered[(len(ordered) - 1) // 2 + (len(ordered) % 2 == 0)]
    if how == "mean":
        return math.ceil(sum(values) / len(values))
    raise ValueError(f"unknown aggregate {how!r}")


class Trajectories:
    """One candidate's runs on every training instance, step by step.

    A candidate's trajectory does not depend on the accuracy target; only
    where it stops does.  So one run per instance, with the accuracy
    recorded after every step, answers every (target, cap) query of a
    level: :meth:`iterations` reads the first crossing off the recorded
    runs and steps an instance further only when its run is shorter than
    the query's cap.

    ``starts`` holds (x, b) pairs; each ``x`` is mutated in place (callers
    pass fresh copies).  ``accuracy_fns[i]`` judges instance i.
    """

    def __init__(
        self,
        step: StepFn,
        starts: Sequence[tuple[np.ndarray, np.ndarray]],
        accuracy_fns: Sequence[Callable[[np.ndarray], float]],
    ) -> None:
        if len(starts) != len(accuracy_fns):
            raise ValueError("starts and accuracy_fns must align")
        if not starts:
            raise ValueError("need at least one training instance")
        self._step = step
        self._starts = starts
        self._accuracy_fns = accuracy_fns
        #: accuracy after 0, 1, 2, ... steps, per instance (filled lazily)
        self._accuracies: list[list[float]] = [[] for _ in starts]

    def iterations(self, target: float, max_iters: int, aggregate: Aggregate = "max") -> int:
        """Iterations of the step needed to reach ``target`` on every
        instance, aggregated across instances.

        Aggregation defaults to the worst case ("max") so a tuned plan
        meets its advertised accuracy on all training instances — the
        property the DP composition relies on.

        Raises :class:`InfeasibleCandidate` if an instance does not reach
        ``target`` within ``max_iters`` applications, whatever longer run
        an earlier query recorded.
        """
        if max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        needed = [self._crossing(i, target, max_iters) for i in range(len(self._starts))]
        return _aggregate(needed, aggregate)

    def _crossing(self, index: int, target: float, max_iters: int) -> int:
        """First step count, at most ``max_iters``, at which instance
        ``index`` reaches ``target``."""
        x, b = self._starts[index]
        acc = self._accuracy_fns[index]
        recorded = self._accuracies[index]
        if not recorded:
            recorded.append(acc(x))
        for count, value in enumerate(recorded[: max_iters + 1]):
            if value >= target:
                return count
        while len(recorded) <= max_iters:
            self._step(x, b)
            recorded.append(acc(x))
            if recorded[-1] >= target:
                return len(recorded) - 1
        raise InfeasibleCandidate(
            f"candidate did not reach accuracy {target:g} within "
            f"{max_iters} iterations (n={x.shape[0]})",
            iterations_tried=max_iters,
        )

