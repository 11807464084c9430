"""Executor observation: span trees, the op-span floor, numeric
identity, and the spans a failing solve leaves."""

import numpy as np
import pytest

from repro.machines.presets import INTEL_HARPERTOWN
from repro.obs.profile import SolveProfiler
from repro.obs.trace import Tracer
from repro.tuner.dp import VCycleTuner
from repro.tuner.choices import DirectChoice, RecurseChoice
from repro.tuner.executor import OP_SPAN_MIN_POINTS, PlanExecutor
from repro.tuner.plan import fixed_vplan
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.util.clock import ManualClock
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem

# Level 6 so the tuned plan recurses through levels below the default
# op-span floor (level 5 in 2-D): the floor test needs both sides.
LEVEL = 6


@pytest.fixture(scope="module")
def tuned_plan():
    return VCycleTuner(
        max_level=LEVEL,
        training=TrainingData(distribution="unbiased", instances=1, seed=0),
        timing=CostModelTiming(INTEL_HARPERTOWN),
    ).tune()


def solve(executor, plan, seed=0):
    problem = make_problem("unbiased", size_of_level(LEVEL), seed, operator="poisson")
    x = problem.initial_guess()
    executor.run_v(plan, x, problem.b, len(plan.accuracies) - 1)
    return x


class TestSpanTree:
    def test_traced_solve_is_one_tree(self, tuned_plan):
        tracer = Tracer()
        executor = PlanExecutor(
            operator="poisson", tracer=tracer, op_span_min_points=0
        )
        solve(executor, tuned_plan)
        spans = tracer.spans()
        assert spans, "traced solve recorded nothing"
        assert len({s.trace_id for s in spans}) == 1
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "mg.level"
        ids = {s.span_id for s in spans}
        assert all(s.parent_id in ids for s in spans if s.parent_id is not None)

    def test_op_spans_carry_level_and_backend(self, tuned_plan):
        tracer = Tracer()
        executor = PlanExecutor(
            operator="poisson", tracer=tracer, op_span_min_points=0
        )
        solve(executor, tuned_plan)
        ops = [s for s in tracer.spans() if s.name.startswith("op.")]
        assert ops
        for span in ops:
            assert "level" in span.attrs
            assert "backend" in span.attrs
        # every op hangs off the mg.level span of its own level
        levels = {s.span_id: s.attrs["level"] for s in tracer.spans()
                  if s.name == "mg.level"}
        for span in ops:
            assert levels[span.parent_id] == span.attrs["level"]

    def test_nests_under_contextual_parent(self, tuned_plan):
        tracer = Tracer()
        executor = PlanExecutor(operator="poisson", tracer=tracer)
        with tracer.span("serve.batch") as batch:
            solve(executor, tuned_plan)
        roots = [s for s in tracer.spans() if s.parent_id is None]
        assert [s.name for s in roots] == ["serve.batch"]
        mg_roots = [s for s in tracer.spans()
                    if s.name == "mg.level" and s.parent_id == batch.span_id]
        assert len(mg_roots) == 1


class TestOpSpanFloor:
    def test_default_floor_skips_tiny_levels(self, tuned_plan):
        tracer = Tracer()
        executor = PlanExecutor(operator="poisson", tracer=tracer)
        solve(executor, tuned_plan)
        spans = tracer.spans()
        op_levels = {s.attrs["level"] for s in spans if s.name.startswith("op.")}
        mg_levels = {s.attrs["level"] for s in spans if s.name == "mg.level"}
        floor_level = executor._op_span_min_level
        assert all(lv >= floor_level for lv in op_levels)
        assert any(lv < floor_level for lv in mg_levels)  # levels still covered
        assert executor.op_span_min_points == OP_SPAN_MIN_POINTS

    def test_zero_floor_records_everything(self, tuned_plan):
        tracer = Tracer()
        executor = PlanExecutor(
            operator="poisson", tracer=tracer, op_span_min_points=0
        )
        solve(executor, tuned_plan)
        names = {s.name for s in tracer.spans()}
        assert "op.direct" in names or "op.relax" in names


class TestProfiler:
    def test_profiler_rows_without_tracer(self, tuned_plan):
        profiler = SolveProfiler()
        executor = PlanExecutor(
            operator="poisson", profiler=profiler, op_span_min_points=0
        )
        solve(executor, tuned_plan)
        assert len(profiler) > 0
        assert profiler.total_seconds() > 0
        # profiler-only mode must not accumulate span records anywhere
        assert len(executor._obs_tracer.sink) <= 1

    def test_profiler_and_tracer_agree_on_ops(self, tuned_plan):
        tracer, profiler = Tracer(), SolveProfiler()
        executor = PlanExecutor(
            operator="poisson", tracer=tracer, profiler=profiler,
            op_span_min_points=0,
        )
        solve(executor, tuned_plan)
        op_span_count = sum(
            1 for s in tracer.spans() if s.name.startswith("op.")
        )
        profiled_count = sum(r["count"] for r in profiler.rows())
        assert profiled_count == op_span_count


class TestNumericIdentity:
    def test_tracing_never_changes_the_solution(self, tuned_plan):
        """Golden-path identity: observation must be numerically invisible."""
        plain = solve(PlanExecutor(operator="poisson"), tuned_plan)
        traced = solve(
            PlanExecutor(
                operator="poisson", tracer=Tracer(),
                profiler=SolveProfiler(), op_span_min_points=0,
            ),
            tuned_plan,
        )
        assert np.array_equal(plain, traced)  # byte-identical, not approx

    def test_manual_clock_durations_cover_the_solve(self, tuned_plan):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        executor = PlanExecutor(operator="poisson", tracer=tracer)
        solve(executor, tuned_plan)
        root = next(s for s in tracer.spans() if s.parent_id is None)
        assert root.end_s is not None and root.duration_s == 0.0  # manual time


class _KernelFault(RuntimeError):
    pass


class _FaultyExecutor(PlanExecutor):
    """Binds kernels whose interpolation at ``fault_level`` raises while
    ``armed``: the solve fails inside that level's coarse-grid
    correction, with the levels above it still open."""

    fault_level = 3
    armed = True

    def _kernels(self, level, backend):
        kernels = super()._kernels(level, backend)
        if level != self.fault_level:
            return kernels
        executor = self

        class Faulty:
            def __getattr__(self, name):
                return getattr(kernels, name)

            def interpolate_correction(self, x, ec):
                if executor.armed:
                    raise _KernelFault("injected")
                return kernels.interpolate_correction(x, ec)

        return Faulty()


class TestFaultPath:
    """A kernel that raises mid-solve: the flat program loop must close
    what the nested calls of a recursive executor closed on unwind."""

    PLAN = fixed_vplan([DirectChoice(), *[RecurseChoice(0, 1)] * 3])

    def _solve(self, executor):
        problem = make_problem("unbiased", size_of_level(4), 0, operator="poisson")
        x = problem.initial_guess()
        executor.run_v(self.PLAN, x, problem.b, 0)
        return x

    def test_open_level_spans_finish_with_the_error(self):
        tracer = Tracer()
        executor = _FaultyExecutor(operator="poisson", tracer=tracer, op_span_min_points=0)
        with pytest.raises(_KernelFault):
            self._solve(executor)
        levels = {s.attrs["level"]: s for s in tracer.spans() if s.name == "mg.level"}
        assert sorted(levels) == [1, 2, 3, 4]  # every span that opened finished
        assert all(s.end_s is not None for s in levels.values())
        for level, span in levels.items():
            expected = "_KernelFault" if level >= executor.fault_level else None
            assert span.attrs.get("error") == expected, level
        assert levels[4].parent_id is None
        assert levels[3].parent_id == levels[4].span_id
        assert tracer.current() is None

    def test_next_solve_records_one_clean_tree(self):
        tracer = Tracer()
        executor = _FaultyExecutor(operator="poisson", tracer=tracer, op_span_min_points=0)
        with pytest.raises(_KernelFault):
            self._solve(executor)
        tracer.sink.clear()
        executor.armed = False
        x = self._solve(executor)
        assert np.array_equal(x, self._solve(PlanExecutor(operator="poisson")))
        spans = tracer.spans()
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["mg.level"]
        assert roots[0].attrs["level"] == 4
        ids = {s.span_id for s in spans}
        assert all(s.parent_id in ids for s in spans if s.parent_id is not None)
        # the span attrs dicts solves share were not labelled in place
        assert not any("error" in s.attrs for s in spans)
        assert sum(s.name == "mg.level" for s in spans) == 4
