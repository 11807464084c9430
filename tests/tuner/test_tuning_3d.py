"""3-D tuning end-to-end: convergence, DP plans, determinism, pricing.

Covers the acceptance bar of the dimension-general refactor:

* the standard V cycle on ``ConstCoeffPoisson3D`` contracts the residual
  by a measured factor <= 0.25 per cycle at level 5;
* the DP tuner produces executable, accuracy-meeting 3-D plans whose
  meters use the 3-D op vocabulary;
* parallel (jobs=4) DP tuning selects byte-identical 3-D plans;
* the tuned plan never prices worse than the paper's fixed heuristic on
  the same cost model (the tuned-vs-heuristic gate `bench_3d` enforces
  in CI, asserted here at smoke scale).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.api import autotune, autotune_full_mg, solve
from repro.grids.norms import residual_norm
from repro.machines.presets import get_preset
from repro.multigrid import full_mg_plan, v_plan
from repro.operators import shared_operator
from repro.tuner.config import plan_to_dict
from repro.tuner.executor import PlanExecutor
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.workloads.distributions import make_problem


def _plan_hash(plan) -> str:
    payload = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestVCycleConvergence3D:
    def test_level5_convergence_factor_below_quarter(self):
        """Acceptance: measured factor <= 0.25 per V(1,1) cycle at level 5."""
        n = 33
        op = shared_operator("poisson3d", n)
        rng = np.random.default_rng(7)
        u = np.zeros((n,) * 3)
        b = rng.uniform(-1.0, 1.0, size=(n,) * 3)
        executor, plan = PlanExecutor(operator="poisson3d"), v_plan(5, ndim=3)
        prev = residual_norm(op.residual(u, b))
        factors = []
        for _ in range(6):
            executor.run_v(plan, u, b, 0)
            cur = residual_norm(op.residual(u, b))
            if cur == 0.0:
                break
            factors.append(cur / prev)
            prev = cur
        assert factors and max(factors) <= 0.25, factors

    def test_fmg_also_contracts(self):
        n = 17
        rng = np.random.default_rng(8)
        b = rng.uniform(-1.0, 1.0, size=(n,) * 3)
        op = shared_operator("poisson3d", n)
        u = np.zeros((n,) * 3)
        r0 = residual_norm(op.residual(u, b))
        PlanExecutor(operator="poisson3d").run_full_mg(full_mg_plan(4, ndim=3), u, b, 0)
        assert residual_norm(op.residual(u, b)) < 0.2 * r0


class TestTunedPlans3D:
    @pytest.fixture(scope="class")
    def vplan(self):
        return autotune(max_level=4, instances=2, seed=0, operator="poisson3d")

    def test_plan_carries_ndim_and_operator(self, vplan):
        assert vplan.ndim == 3
        assert vplan.metadata["operator"] == "poisson3d"
        assert plan_to_dict(vplan)["ndim"] == 3

    def test_unit_meter_uses_3d_vocabulary(self, vplan):
        meter = vplan.unit_meter(4, vplan.num_accuracies - 1)
        ops = {op for (op, _n) in meter.counts}
        assert ops and all(op.endswith("3d") for op in ops)

    def test_solve_meets_every_ladder_accuracy(self, vplan):
        from repro.accuracy.judge import AccuracyJudge
        from repro.accuracy.reference import reference_solution

        problem = make_problem("unbiased", 17, seed=11, operator="poisson3d")
        judge = AccuracyJudge(problem.initial_guess(), reference_solution(problem))
        for target in vplan.accuracies:
            x, meter = solve(vplan, problem, target)
            assert judge.accuracy_of(x) >= target
        assert {op for (op, _n) in meter.counts} <= {
            "relax3d", "residual3d", "restrict3d", "interpolate3d", "direct3d",
        }

    def test_full_mg_tuner_builds_on_3d_vplan(self, vplan):
        fmg = autotune_full_mg(
            max_level=4, instances=2, seed=0, operator="poisson3d", vplan=vplan
        )
        assert fmg.ndim == 3
        problem = make_problem("unbiased", 17, seed=3, operator="poisson3d")
        x, _ = solve(fmg, problem, 1e5)
        assert x.shape == (17, 17, 17)

    def test_solve_rejects_dimension_mismatched_problem(self, vplan):
        problem = make_problem("unbiased", 17, seed=1)  # 2-D poisson
        with pytest.raises(ValueError, match="operator"):
            solve(vplan, problem, 1e5)

    def test_anisotropic3d_gets_its_own_distinct_plan(self):
        iso = autotune(max_level=3, instances=1, seed=0, operator="poisson3d")
        aniso = autotune(
            max_level=3, instances=1, seed=0, operator="anisotropic3d(epsx=0.01)"
        )
        assert aniso.metadata["operator"] == "anisotropic3d(epsx=0.01)"
        assert _plan_hash(iso) != _plan_hash(aniso)


class TestDeterminism3D:
    def test_parallel_dp_selects_byte_identical_plan(self):
        """jobs=1 vs jobs=4 golden-hash equality for a 3-D tune."""
        serial = autotune(max_level=3, instances=1, seed=0, operator="poisson3d")
        parallel = autotune(
            max_level=3, instances=1, seed=0, operator="poisson3d", jobs=4
        )
        assert _plan_hash(serial) == _plan_hash(parallel)

    def test_repeated_serial_tunes_are_identical(self):
        a = autotune(max_level=3, instances=1, seed=0, operator="anisotropic3d")
        b = autotune(max_level=3, instances=1, seed=0, operator="anisotropic3d")
        assert _plan_hash(a) == _plan_hash(b)

    def test_pareto_ablation_tuner_refuses_3d_operators(self):
        # The full-DP ablation runs raw 2-D kernels; it must fail loudly
        # rather than misprice n**3 work with 2-D op shapes.
        from repro.tuner.pareto import ParetoTuner

        with pytest.raises(ValueError, match="2-D"):
            ParetoTuner(max_level=2, training=TrainingData(operator="poisson3d"))


class TestTunedBeatsHeuristic3D:
    def test_tuned_plan_never_prices_worse_than_fixed_heuristic(self):
        from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
        from repro.tuner.plan import DEFAULT_ACCURACIES

        profile = get_preset("intel")
        level = 4
        training = TrainingData(
            distribution="unbiased", instances=2, seed=0, operator="poisson3d"
        )
        tuned = autotune(
            max_level=level, machine=profile, instances=2, seed=0,
            operator="poisson3d",
        )
        final = len(DEFAULT_ACCURACIES) - 1
        heuristic = tune_heuristic(
            HeuristicStrategy(sub_index=final, final_index=final),
            max_level=level,
            accuracies=DEFAULT_ACCURACIES,
            training=training,
            timing=CostModelTiming(profile),
        )
        assert heuristic.ndim == 3
        for i in range(len(DEFAULT_ACCURACIES)):
            tuned_cost = tuned.time_on(profile, level, i)
            heuristic_cost = heuristic.time_on(profile, level, i)
            assert tuned_cost <= heuristic_cost * (1.0 + 1e-9)
