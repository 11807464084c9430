"""Tests for the iterate-until-accuracy reference solvers."""

import pytest

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import reference_solution
from repro.machines.meter import OpMeter
from repro.multigrid.solver import (
    IterationLimit,
    ReferenceFullMGSolver,
    ReferenceVSolver,
    SORSolver,
    full_mg_plan,
    sor_plan,
    v_plan,
)
from repro.workloads.distributions import make_problem


@pytest.fixture(scope="module")
def problem():
    return make_problem("biased", 17, seed=51)


@pytest.fixture(scope="module")
def judge_factory(problem):
    x_opt = reference_solution(problem)

    def make():
        x = problem.initial_guess()
        return x, AccuracyJudge(x, x_opt)

    return make


@pytest.mark.parametrize(
    "solver_cls", [SORSolver, ReferenceVSolver, ReferenceFullMGSolver]
)
class TestReferenceSolvers:
    def test_reaches_target(self, solver_cls, problem, judge_factory):
        x, judge = judge_factory()
        iters = solver_cls().solve(x, problem.b, judge.accuracy_of, 1e5)
        assert judge.accuracy_of(x) >= 1e5
        assert iters >= 1

    def test_zero_iterations_if_already_converged(
        self, solver_cls, problem, judge_factory
    ):
        x, judge = judge_factory()
        solver = solver_cls()
        solver.solve(x, problem.b, judge.accuracy_of, 1e3)
        again = solver.solve(x, problem.b, judge.accuracy_of, 1e3)
        assert again == 0

    def test_iteration_limit_raised(self, solver_cls, problem, judge_factory):
        x, judge = judge_factory()
        with pytest.raises(IterationLimit):
            solver_cls(max_iters=1).solve(x, problem.b, judge.accuracy_of, 1e12)

    def test_meter_populated(self, solver_cls, problem, judge_factory):
        x, judge = judge_factory()
        meter = OpMeter()
        solver_cls().solve(x, problem.b, judge.accuracy_of, 1e3, meter)
        assert meter.total("relax") + meter.total("direct") > 0


class TestRelativeBehaviour:
    def test_multigrid_needs_fewer_iterations_than_sor(self, problem, judge_factory):
        xs, js = judge_factory()
        xv, jv = judge_factory()
        sor_iters = SORSolver().solve(xs, problem.b, js.accuracy_of, 1e5)
        v_iters = ReferenceVSolver().solve(xv, problem.b, jv.accuracy_of, 1e5)
        assert v_iters < sor_iters

    def test_full_mg_start_helps(self, problem, judge_factory):
        xv, jv = judge_factory()
        xf, jf = judge_factory()
        v_iters = ReferenceVSolver().solve(xv, problem.b, jv.accuracy_of, 1e7)
        f_iters = ReferenceFullMGSolver().solve(xf, problem.b, jf.accuracy_of, 1e7)
        assert f_iters <= v_iters


class TestFixedPlans:
    def test_built_once_per_level_and_ndim(self):
        # Shared plans share their compiled programs across solves.
        for build in (v_plan, full_mg_plan, sor_plan):
            assert build(5) is build(5)
            assert build(4, 3) is build(4, 3)
            assert build(4, 3) is not build(4)
        assert full_mg_plan(5, 2).vplan is v_plan(5, 2)
