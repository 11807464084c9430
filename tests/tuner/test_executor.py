"""Tests for plan execution: semantics, kernel calls, plan traces."""

import numpy as np
import pytest

from repro.linalg.direct import DirectSolver
from repro.machines.meter import OpMeter, backend_op, dim_op
from repro.machines.presets import INTEL_HARPERTOWN
from repro.obs.trace import Tracer
from repro.relax.sor import sor_redblack
from repro.relax.weights import omega_opt
from repro.tuner.choices import DirectChoice, SORChoice
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import TunedVPlan
from repro.tuner.spec import TuneKey, TuneSpec, tune
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem
from tests.tuner.test_choices_plan import tiny_vplan


@pytest.fixture()
def problem9():
    return make_problem("unbiased", 9, seed=71)


class TestExecutionSemantics:
    def test_direct_slot_equals_direct_solver(self, problem9):
        plan = TunedVPlan(
            accuracies=(1e1,), max_level=3, table={
                (1, 0): DirectChoice(),
                (2, 0): DirectChoice(),
                (3, 0): DirectChoice(),
            },
        )
        x = problem9.initial_guess()
        PlanExecutor().run_v(plan, x, problem9.b, 0)
        expected = problem9.initial_guess()
        DirectSolver().solve(expected, problem9.b)
        np.testing.assert_allclose(x, expected, rtol=1e-12)

    def test_sor_slot_equals_sor_sweeps(self, problem9):
        plan = TunedVPlan(
            accuracies=(1e1,), max_level=3, table={
                (1, 0): DirectChoice(),
                (2, 0): DirectChoice(),
                (3, 0): SORChoice(iterations=4),
            },
        )
        x = problem9.initial_guess()
        PlanExecutor().run_v(plan, x, problem9.b, 0)
        expected = problem9.initial_guess()
        sor_redblack(expected, problem9.b, omega_opt(9), 4)
        np.testing.assert_allclose(x, expected, rtol=1e-12)

    def test_recurse_slot_matches_manual_composition(self, problem9):
        plan = tiny_vplan()
        x = problem9.initial_guess()
        PlanExecutor().run_v(plan, x, problem9.b, 1)
        # Manual: 3 iterations of [SOR(1.15), restrict residual, solve
        # coarse with plan (2,0)=SOR(w_opt)x5, interpolate, SOR(1.15)].
        from repro.grids.poisson import residual
        from repro.grids.transfer import interpolate_correction, restrict_full_weighting

        y = problem9.initial_guess()
        for _ in range(3):
            sor_redblack(y, problem9.b, 1.15, 1)
            rc = restrict_full_weighting(residual(y, problem9.b))
            ec = np.zeros_like(rc)
            sor_redblack(ec, rc, omega_opt(5), 5)
            interpolate_correction(y, ec)
            sor_redblack(y, problem9.b, 1.15, 1)
        np.testing.assert_allclose(x, y, rtol=1e-10)

    def test_level_above_plan_rejected(self, problem9):
        plan = tiny_vplan()
        big = make_problem("unbiased", 33, seed=72)
        with pytest.raises(ValueError, match="tuned up to level"):
            PlanExecutor().run_v(plan, big.initial_guess(), big.b, 0)


def _kernel_call_meter(spans, ndim: int) -> OpMeter:
    """The op multiset a traced solve actually ran: one leaf span per
    kernel call, a relax span counting its ``iterations`` sweeps."""
    meter = OpMeter()
    for span in spans:
        if not span.name.startswith("op."):
            continue
        op = dim_op(span.name[len("op."):], ndim)
        if span.attrs["backend"] != "direct":
            op = backend_op(op, span.attrs["backend"])
        n = size_of_level(span.attrs["level"])
        meter.charge(op, n, span.attrs.get("iterations", 1))
    return meter


@pytest.fixture(scope="module", params=[
    ("poisson", "numpy", 5),
    ("poisson", "cnative", 5),
    ("poisson3d", "numpy", 4),
    ("poisson3d", "cnative", 4),
], ids=lambda p: f"{p[0]}-{p[1]}")
def plan_pair(request):
    """A full-MG plan (and its V plan) tuned on one operator and backend."""
    operator, backend, level = request.param
    key = TuneKey(
        kind="full-multigrid", max_level=level, instances=1, seed=0,
        operator=operator, backend=backend,
    )
    return operator, tune(TuneSpec(key, pricing=INTEL_HARPERTOWN))


class TestKernelCallInvariant:
    """Fundamental pricing invariant: the kernels a solve calls are the
    analytic op multiset the tuner priced the plan with."""

    @pytest.mark.parametrize("kind", ["v", "full"])
    def test_kernel_calls_equal_unit_meter(self, plan_pair, kind):
        operator, fplan = plan_pair
        plan = fplan.vplan if kind == "v" else fplan
        slots = [(lv, i) for lv in range(1, plan.max_level + 1)
                 for i in range(plan.num_accuracies)]
        for level, acc_index in slots:
            problem = make_problem(
                "unbiased", size_of_level(level), seed=73 + acc_index, operator=operator
            )
            tracer = Tracer(capacity=1 << 20)
            executor = PlanExecutor(
                operator=operator, tracer=tracer, op_span_min_points=0
            )
            x = problem.initial_guess()
            if kind == "v":
                executor.run_v(plan, x, problem.b, acc_index)
            else:
                executor.run_full_mg(plan, x, problem.b, acc_index)
            ran = _kernel_call_meter(tracer.spans(), plan.ndim)
            assert ran == plan.unit_meter(level, acc_index), (kind, level, acc_index)

    def test_given_meter_is_charged_the_unit_meter(self, tuned_plan):
        problem = make_problem("unbiased", 33, seed=79)
        meter = OpMeter()
        for _ in range(2):
            PlanExecutor().run_v(tuned_plan, problem.initial_guess(), problem.b, 2, meter)
        assert meter == tuned_plan.unit_meter(5, 2).scaled(2)


class TestTracing:
    def test_trace_balanced_and_leveled(self):
        trace = tiny_vplan().trace(3, 1)
        kinds = [e.kind for e in trace]
        assert kinds.count("enter") == kinds.count("exit") > 0
        assert kinds.count("descend") == kinds.count("ascend") == 3
        assert trace[0].kind == "enter"
        assert trace[0].level == 3

    def test_trace_sor_detail_carries_sweeps(self):
        plan = TunedVPlan(
            accuracies=(1e1,), max_level=3, table={
                (1, 0): DirectChoice(),
                (2, 0): DirectChoice(),
                (3, 0): SORChoice(iterations=6),
            },
        )
        sor_events = [e for e in plan.trace(3, 0) if e.kind == "sor"]
        assert len(sor_events) == 1
        assert sor_events[0].detail == 6

    def test_min_level(self):
        trace = tiny_vplan().trace(3, 1)
        assert min(e.level for e in trace) == 2  # (3,1) recurses into (2,0)=SOR
