"""Tests for the reference multigrid cycles, run as fixed plans."""

import numpy as np
import pytest

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import reference_solution
from repro.grids.norms import residual_norm
from repro.grids.poisson import residual
from repro.machines.meter import OpMeter
from repro.multigrid import full_mg_plan, v_plan
from repro.tuner.choices import DirectChoice, RecurseChoice
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import fixed_vplan
from repro.util.validation import level_of_size
from repro.workloads.distributions import make_problem


def vcycle(x, b, meter=None):
    return PlanExecutor().run_v(v_plan(level_of_size(x.shape[0])), x, b, 0, meter)


def full_multigrid_cycle(x, b, meter=None):
    plan = full_mg_plan(level_of_size(x.shape[0]))
    return PlanExecutor().run_full_mg(plan, x, b, 0, meter)


@pytest.fixture(scope="module")
def problem():
    return make_problem("unbiased", 33, seed=41)


@pytest.fixture(scope="module")
def x_opt(problem):
    return reference_solution(problem)


class TestVCycle:
    def test_reduces_error_by_order_of_magnitude(self, problem, x_opt):
        x = problem.initial_guess()
        judge = AccuracyJudge(x, x_opt)
        vcycle(x, problem.b)
        assert judge.accuracy_of(x) > 5.0

    def test_converges_to_machine_precision(self, problem):
        x = problem.initial_guess()
        for _ in range(30):
            vcycle(x, problem.b)
        scale = float(np.abs(problem.b).max())
        assert residual_norm(residual(x, problem.b)) <= 1e-10 * scale

    def test_base_case_is_exact(self):
        tiny = make_problem("unbiased", 3, seed=42)
        x = tiny.initial_guess()
        vcycle(x, tiny.b)
        assert residual_norm(residual(x, tiny.b)) <= 1e-6

    def test_base_size_cutoff_respected(self, problem):
        # Direct solve at level 3 (9x9) and below, V recursion above.
        plan = fixed_vplan([DirectChoice()] * 3 + [RecurseChoice(0, 1)] * 2)
        meter = OpMeter()
        x = problem.initial_guess()
        PlanExecutor().run_v(plan, x, problem.b, 0, meter)
        assert meter.counts[("direct", 9)] == 1
        assert ("relax", 5) not in meter.counts

    def test_meter_counts_exact(self, problem):
        # Level 5 V-cycle with base 3: relax 2x at n=33,17,9,5; direct at 3.
        meter = OpMeter()
        vcycle(problem.initial_guess(), problem.b, meter=meter)
        for n in (33, 17, 9, 5):
            assert meter.counts[("relax", n)] == 2
            assert meter.counts[("residual", n)] == 1
            assert meter.counts[("restrict", n)] == 1
            assert meter.counts[("interpolate", n)] == 1
        assert meter.counts[("direct", 3)] == 1


class TestFullMultigrid:
    def test_single_cycle_beats_single_vcycle(self, problem, x_opt):
        xf = problem.initial_guess()
        xv = problem.initial_guess()
        judge = AccuracyJudge(xf, x_opt)
        full_multigrid_cycle(xf, problem.b)
        vcycle(xv, problem.b)
        assert judge.accuracy_of(xf) > judge.accuracy_of(xv)

    def test_estimation_phase_recurses(self, problem):
        meter = OpMeter()
        full_multigrid_cycle(problem.initial_guess(), problem.b, meter=meter)
        # Estimation + solve-phase V cycles at every level: more than one
        # residual per level below the top.
        assert meter.counts[("residual", 17)] >= 2

    def test_base_case(self):
        tiny = make_problem("unbiased", 3, seed=43)
        x = tiny.initial_guess()
        full_multigrid_cycle(x, tiny.b)
        assert residual_norm(residual(x, tiny.b)) <= 1e-6
