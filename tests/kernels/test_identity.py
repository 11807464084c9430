"""Byte-identity gate: accelerated backends vs the NumPy reference.

Two layers of protection:

* **Golden hashes** pin the NumPy reference outputs for fixed inputs,
  so the ground truth itself cannot drift silently.  Like the golden
  hashes in ``tests/operators/test_operator_identity.py`` they assume
  the linux/x86-64 toolchain CI uses; the kernels are pure
  slicing/elementwise NumPy (no BLAS), so they are stable in practice.
* **Cross-backend equality** asserts every *available* accelerated
  backend reproduces those same bytes, kernel by kernel, and that a
  whole tuned plan executed with accelerated levels returns the same
  solution bytes as its all-NumPy twin — serial and with jobs=4.

Backends that cannot run here (e.g. numba without the package) are
skipped per-parameter, so the suite passes on any host while checking
everything the host can check.
"""

import hashlib

import numpy as np
import pytest

from repro.core.api import autotune
from repro.kernels import BACKEND_PRIORITY, get_backend
from repro.operators.spec import shared_operator
from repro.tuner.config import plan_to_dict
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import TunedVPlan
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem

# sha256 of the NumPy reference outputs for the fixed inputs built by
# _kernel_outputs below (seed 2009, n=33 in 2-D / 17 in 3-D).
GOLDEN = {
    "poisson": {
        "sor": "25843abc14e35a688df7ff9f6ae5b3f99288f18d2cfd376ceed461125c68b365",
        "jacobi": "4bd4b7d02ecc1bbd1258d030d612945fa2545f3b55564db0f51fd8172401bd51",
        "residual": "ee31a8917a2b71283ffde23af354f903d39a2d2c48a34d5857a3c1913e87014a",
        "restrict": "21434fa32de3b20fbff253469f98f3b6c1ac45a9db4cdc219360707e4ebe3f29",
        "interpolate": "557eef6a79bd64fa42b32d7b49601481d352af5d7a53b842d68b6527ada17305",
    },
    "anisotropic(epsilon=0.01)": {
        "sor": "873c05159808505942690a57bf00033cb5aa187269c4bbd65ec26e205a279050",
        "jacobi": "edba5423c7e30a4ce4239570eadc3095a0207396a3730eb0205f154e7c2dbbdf",
        "residual": "fc0473f783088de6708b43f021a83f644ad99385e3cbaecebb2ab121c8aa4349",
        "restrict": "ec2833fd0cba5096199af2c3587877f26faaac307008363fa9abe8b6154b18f7",
        "interpolate": "b39564a038f91d9c294233dc88a62bf25b106b67159bde9b67fd03a3d350d0da",
    },
    "varcoeff(field=bump,amplitude=4.0)": {
        "sor": "a973d04782c745ef36c77558cdaf8391aca4f89ad8c612833eefaec17251a8fe",
        "jacobi": "2ddf607baef1c27ab04440dd9b2f2be79c3671a25f1a4185b8db1be3d343ce94",
        "residual": "59e9fad60cb264845c86d32a574d7c2b22a6f08349cf370d61c7ca1f0bf13487",
        "restrict": "f9b36cf6d8dfd093afe953d314acb9a5ac35c969f49a66cbc763425101ad5755",
        "interpolate": "006d51ff41e9765283853f7e804144bba4b5510f7254441bbc5e57cd729d6539",
    },
    "poisson3d": {
        "sor": "0f4604f170712e3d8eb94dab4b1536ca72868b6c3ee5b8303870b9a66eac1075",
        "jacobi": "8123370df85309deb65735a23963fa40e39efde6432db973ee6625e4091b15ed",
        "residual": "a35b91721af1ecef166a6816253c7000966db487065e9c939fafecd604bd4084",
        "restrict": "2f5bab6327d87d473c36ffa9a12078c7787a6b411314ce7a2905a5a644807735",
        "interpolate": "30360bfa636b17bdd836d366a126d448dee828c3435a9b9b5b32da9a27ff5c69",
    },
}

ACCELERATED = tuple(n for n in BACKEND_PRIORITY if n != "numpy")


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _available(name: str):
    backend = get_backend(name)
    if not backend.available():
        pytest.skip(f"backend {name!r} is unavailable on this host")
    backend.warmup()
    return backend


def _kernel_outputs(kernels, op) -> dict[str, np.ndarray]:
    """Every kernel's output for the fixed deterministic inputs."""
    n = op.n
    rng = np.random.default_rng(2009)
    shape = (n,) * op.ndim
    u0 = rng.uniform(-1.0, 1.0, size=shape)
    b = rng.uniform(-1.0, 1.0, size=shape)
    omega = op.omega_opt()
    u_sor = u0.copy()
    kernels.sor_sweeps(u_sor, b, omega, 2)
    u_jac = u0.copy()
    kernels.jacobi_sweeps(u_jac, b, omega, 2)
    r = kernels.residual(u0, b)
    c = kernels.restrict(r)
    u_int = u0.copy()
    kernels.interpolate_correction(u_int, c)
    return {
        "sor": u_sor,
        "jacobi": u_jac,
        "residual": r,
        "restrict": c,
        "interpolate": u_int,
    }


def _operator_for(spec: str):
    n = 17 if spec == "poisson3d" else 33
    return shared_operator(spec, n)


class TestGoldenHashes:
    @pytest.mark.parametrize("spec", sorted(GOLDEN))
    def test_numpy_reference_matches_golden(self, spec):
        """The ground truth itself must not drift."""
        op = _operator_for(spec)
        outputs = _kernel_outputs(get_backend("numpy").bind(op), op)
        hashes = {name: _sha(array) for name, array in outputs.items()}
        assert hashes == GOLDEN[spec]

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    @pytest.mark.parametrize("spec", sorted(GOLDEN))
    def test_accelerated_matches_golden(self, backend_name, spec):
        """Accelerated kernels hash to the same goldens, bit for bit."""
        backend = _available(backend_name)
        op = _operator_for(spec)
        if not backend.supports(op):
            pytest.skip(f"{backend_name} does not support {spec}")
        kernels = backend.bind(op)
        assert kernels is not None
        outputs = _kernel_outputs(kernels, op)
        hashes = {name: _sha(array) for name, array in outputs.items()}
        assert hashes == GOLDEN[spec]


class TestKernelIdentityAcrossSizes:
    """Hash-free equality at sizes the goldens do not cover (including
    the tiny grids where accelerated backends fall back internally)."""

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    @pytest.mark.parametrize("n", [5, 9, 65])
    def test_kernels_match_numpy(self, backend_name, n):
        backend = _available(backend_name)
        op = shared_operator("poisson", n)
        fast = backend.bind(op)
        if fast is None:
            pytest.skip(f"{backend_name} does not bind poisson at n={n}")
        ref_out = _kernel_outputs(get_backend("numpy").bind(op), op)
        fast_out = _kernel_outputs(fast, op)
        for name in ref_out:
            assert np.array_equal(ref_out[name], fast_out[name]), name

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    @pytest.mark.parametrize("spec", ["poisson3d", "anisotropic3d(epsx=0.01)"])
    @pytest.mark.parametrize("n", [5, 9, 17, 33, 65])
    def test_3d_kernels_match_numpy(self, backend_name, spec, n):
        """Every 3-D kernel, the transfers included, at every size."""
        backend = _available(backend_name)
        op = shared_operator(spec, n)
        fast = backend.bind(op)
        if fast is None:
            pytest.skip(f"{backend_name} does not bind {spec} at n={n}")
        ref_out = _kernel_outputs(get_backend("numpy").bind(op), op)
        fast_out = _kernel_outputs(fast, op)
        for name in ref_out:
            assert np.array_equal(ref_out[name], fast_out[name]), name


class TestPlanExecutionIdentity:
    @pytest.mark.parametrize("backend_name", ACCELERATED)
    def test_accelerated_plan_matches_numpy_plan(self, backend_name):
        """A tuned plan with accelerated levels solves to the same bytes
        as its all-NumPy twin."""
        _available(backend_name)
        plan = autotune(max_level=6, machine="intel", distribution="unbiased",
                        instances=2, seed=0, backend=backend_name)
        assert plan.backends, "tuner should accelerate some level at L6"
        twin = TunedVPlan(
            accuracies=plan.accuracies,
            max_level=plan.max_level,
            table=plan.table,
            metadata={k: v for k, v in plan.metadata.items() if k != "backend"},
            ndim=plan.ndim,
        )
        problem = make_problem("unbiased", size_of_level(6), seed=3)
        solutions = []
        for p in (plan, twin):
            x = problem.initial_guess()
            PlanExecutor().run_v(p, x, problem.b, plan.num_accuracies - 1)
            solutions.append(x)
        assert np.array_equal(solutions[0], solutions[1])

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    def test_accelerated_3d_plan_matches_numpy_plan(self, backend_name):
        """The 3-D twin: a poisson3d L5 plan whose recursing levels run
        accelerated smoothers, residuals and transfers solves to the
        same bytes as its all-NumPy twin."""
        _available(backend_name)
        plan = autotune(max_level=5, machine="intel", distribution="unbiased",
                        instances=2, seed=0, operator="poisson3d",
                        backend=backend_name)
        assert plan.backends, "tuner should accelerate some level at 3-D L5"
        twin = TunedVPlan(
            accuracies=plan.accuracies,
            max_level=plan.max_level,
            table=plan.table,
            metadata={k: v for k, v in plan.metadata.items() if k != "backend"},
            ndim=plan.ndim,
        )
        problem = make_problem("unbiased", size_of_level(5), seed=3,
                               operator="poisson3d")
        solutions = []
        for p in (plan, twin):
            x = problem.initial_guess()
            PlanExecutor(operator="poisson3d").run_v(
                p, x, problem.b, plan.num_accuracies - 1
            )
            solutions.append(x)
        assert np.array_equal(solutions[0], solutions[1])

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    def test_parallel_tune_matches_serial(self, backend_name):
        """jobs=1 vs jobs=4 with the backend axis: identical plan JSON."""
        _available(backend_name)
        kwargs = dict(max_level=5, machine="intel", distribution="unbiased",
                      instances=2, seed=0, backend=backend_name)
        serial = autotune(**kwargs)
        parallel = autotune(jobs=4, **kwargs)
        assert plan_to_dict(serial) == plan_to_dict(parallel)
        assert serial.backends == parallel.backends

    def test_unavailable_backend_falls_back_to_numpy_numerics(self):
        """A plan recorded against a backend this host cannot bind must
        still execute — on numpy, with identical numerics."""
        plan = autotune(max_level=4, machine="intel", distribution="unbiased",
                        instances=2, seed=0)
        forced = TunedVPlan(
            accuracies=plan.accuracies,
            max_level=plan.max_level,
            table=plan.table,
            metadata=dict(plan.metadata),
            ndim=plan.ndim,
            backends={level: "numba" for level in range(2, 5)},
        )
        problem = make_problem("unbiased", size_of_level(4), seed=3)
        solutions = []
        for p in (plan, forced):
            x = problem.initial_guess()
            PlanExecutor().run_v(p, x, problem.b, plan.num_accuracies - 1)
            solutions.append(x)
        assert np.array_equal(solutions[0], solutions[1])
