"""Public-API surface tests: imports, __all__ hygiene, and cross-package
wiring a downstream user depends on."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.grids",
    "repro.linalg",
    "repro.relax",
    "repro.multigrid",
    "repro.accuracy",
    "repro.workloads",
    "repro.tuner",
    "repro.machines",
    "repro.serve",
    "repro.petabricks",
    "repro.util",
]


class TestImportSurface:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", PACKAGES[1:])
    def test_all_exports_resolve(self, name):
        mod = importlib.import_module(name)
        exported = getattr(mod, "__all__", [])
        assert exported, f"{name} must declare __all__"
        for symbol in exported:
            assert hasattr(mod, symbol), f"{name}.{symbol} missing"

    def test_version(self):
        import repro

        assert repro.__version__


class TestFullMGCorePath:
    def test_solve_accepts_full_mg_plan(self):
        from repro.accuracy import AccuracyJudge, reference_solution
        from repro.core import autotune_full_mg, poisson_problem, solve

        plan = autotune_full_mg(max_level=3, instances=1, seed=31)
        problem = poisson_problem("unbiased", n=9, seed=32)
        x, meter = solve(plan, problem, 1e3)
        judge = AccuracyJudge(problem.initial_guess(), reference_solution(problem))
        assert judge.accuracy_of(x) >= 0.5e3
        assert len(meter.counts) > 0

    def test_autotune_accepts_profile_object(self):
        from repro.core import autotune
        from repro.machines import SUN_NIAGARA

        plan = autotune(max_level=2, machine=SUN_NIAGARA, instances=1, seed=33)
        assert plan.metadata["profile"] == SUN_NIAGARA.name

    def test_autotune_rejects_unknown_machine(self):
        from repro.core import autotune

        with pytest.raises(ValueError, match="pdp11"):
            autotune(max_level=2, machine="pdp11")


class TestOpShapeCoverage:
    def test_all_meterable_stencil_ops_have_shapes(self):
        from repro.machines.meter import OPS_2D, OPS_3D
        from repro.machines.profile import OP_SHAPES, OP_SHAPES_3D

        stencil_ops = set(OPS_2D) - {"direct", "direct_solve"}
        assert stencil_ops <= set(OP_SHAPES)
        stencil_ops_3d = {op[:-2] for op in OPS_3D} - {"direct", "direct_solve"}
        assert stencil_ops_3d <= set(OP_SHAPES_3D)

    def test_flops_and_bytes_scale_quadratically(self):
        from repro.machines.profile import OP_SHAPES

        shape = OP_SHAPES["relax"]
        assert shape.flops(10) * 4 == shape.flops(20)
        assert shape.bytes(10) * 4 == shape.bytes(20)
