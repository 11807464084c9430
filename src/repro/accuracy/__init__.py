"""Accuracy machinery: the paper's common yardstick.

An algorithm's *accuracy level* on an input is the error-reduction ratio

    accuracy = ||x_in - x_opt||_2 / ||x_out - x_opt||_2

(section 2.2) — higher is better, and a target of 10^5 means "reduce the
error norm by five orders of magnitude".  Computing it requires the optimal
discrete solution x_opt, which :func:`reference_solution` provides (exact
direct solve at small sizes, deep-converged multigrid beyond).
"""

from repro.accuracy.judge import AccuracyJudge, accuracy_ratio
from repro.accuracy.reference import reference_solution, ReferenceSolutionCache
from repro.accuracy.estimator import InfeasibleCandidate, Trajectories

__all__ = [
    "AccuracyJudge",
    "InfeasibleCandidate",
    "ReferenceSolutionCache",
    "Trajectories",
    "accuracy_ratio",
    "reference_solution",
]
