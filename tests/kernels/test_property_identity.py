"""Hypothesis property: smoother byte-identity across backends.

The byte-identity contract (see :mod:`repro.kernels.base`) is not a
statement about a few golden inputs — it must hold for *any* grid data.
Hypothesis drives random seeds, levels, sweep counts, and operator
families through every available accelerated backend and requires the
smoothed grids, residuals, and transfers to equal the NumPy reference
bit for bit (``np.array_equal``, not ``allclose``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import BACKEND_PRIORITY, available_backends, get_backend
from repro.operators.spec import shared_operator
from repro.util.validation import size_of_level

ACCELERATED = tuple(
    n for n in available_backends() if n != "numpy"
)

OPERATORS = [
    "poisson",
    "anisotropic(epsilon=0.01)",
    "varcoeff(field=bump,amplitude=4.0)",
]
OPERATORS_3D = ["poisson3d", "anisotropic3d(epsx=0.01)"]

if not ACCELERATED:  # pragma: no cover - host without any accelerated backend
    pytest.skip(
        "no accelerated backend available on this host",
        allow_module_level=True,
    )


@pytest.fixture(scope="module", autouse=True)
def _warm_backends():
    for name in ACCELERATED:
        get_backend(name).warmup()


def _random_grids(n: int, ndim: int, seed: int):
    rng = np.random.default_rng(seed)
    shape = (n,) * ndim
    return rng.uniform(-10.0, 10.0, size=shape), rng.uniform(-10.0, 10.0, size=shape)


class TestSmootherIdentity:
    @pytest.mark.parametrize("backend_name", ACCELERATED)
    @pytest.mark.parametrize("operator", OPERATORS)
    @given(
        seed=st.integers(0, 10_000),
        level=st.integers(2, 5),
        sweeps=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_sor_sweeps_match_numpy(self, backend_name, operator, seed, level, sweeps):
        op = shared_operator(operator, size_of_level(level))
        backend = get_backend(backend_name)
        fast = backend.bind(op)
        if fast is None:
            pytest.skip(f"{backend_name} does not bind {operator}")
        ref = get_backend("numpy").bind(op)
        u0, b = _random_grids(op.n, op.ndim, seed)
        omega = op.omega_opt()
        u_ref, u_fast = u0.copy(), u0.copy()
        ref.sor_sweeps(u_ref, b, omega, sweeps)
        fast.sor_sweeps(u_fast, b, omega, sweeps)
        assert np.array_equal(u_ref, u_fast)

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    @pytest.mark.parametrize("operator", OPERATORS)
    @given(seed=st.integers(0, 10_000), level=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_residual_and_transfers_match_numpy(self, backend_name, operator, seed, level):
        op = shared_operator(operator, size_of_level(level))
        backend = get_backend(backend_name)
        fast = backend.bind(op)
        if fast is None:
            pytest.skip(f"{backend_name} does not bind {operator}")
        ref = get_backend("numpy").bind(op)
        u, b = _random_grids(op.n, op.ndim, seed)
        r_ref, r_fast = ref.residual(u, b), fast.residual(u, b)
        assert np.array_equal(r_ref, r_fast)
        assert np.array_equal(ref.restrict(r_ref), fast.restrict(r_fast))
        u_ref, u_fast = u.copy(), u.copy()
        coarse = ref.restrict(r_ref)
        ref.interpolate_correction(u_ref, coarse)
        fast.interpolate_correction(u_fast, coarse)
        assert np.array_equal(u_ref, u_fast)

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    @pytest.mark.parametrize("operator", OPERATORS_3D)
    @given(seed=st.integers(0, 10_000), level=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_residual_and_transfers_match_numpy_3d(
        self, backend_name, operator, seed, level
    ):
        op = shared_operator(operator, size_of_level(level))
        backend = get_backend(backend_name)
        fast = backend.bind(op)
        if fast is None:
            pytest.skip(f"{backend_name} does not bind {operator}")
        ref = get_backend("numpy").bind(op)
        u, b = _random_grids(op.n, op.ndim, seed)
        r_ref, r_fast = ref.residual(u, b), fast.residual(u, b)
        assert np.array_equal(r_ref, r_fast)
        coarse = ref.restrict(r_ref)
        assert np.array_equal(coarse, fast.restrict(r_fast))
        u_ref, u_fast = u.copy(), u.copy()
        ref.interpolate_correction(u_ref, coarse)
        fast.interpolate_correction(u_fast, coarse)
        assert np.array_equal(u_ref, u_fast)

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    @given(seed=st.integers(0, 10_000), sweeps=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_jacobi_matches_numpy_3d(self, backend_name, seed, sweeps):
        op = shared_operator("poisson3d", 9)
        backend = get_backend(backend_name)
        fast = backend.bind(op)
        if fast is None:
            pytest.skip(f"{backend_name} does not bind poisson3d")
        ref = get_backend("numpy").bind(op)
        u0, b = _random_grids(op.n, op.ndim, seed)
        omega = op.omega_opt()
        u_ref, u_fast = u0.copy(), u0.copy()
        ref.jacobi_sweeps(u_ref, b, omega, sweeps)
        fast.jacobi_sweeps(u_fast, b, omega, sweeps)
        assert np.array_equal(u_ref, u_fast)


def test_every_registered_backend_is_exercised_or_skipped():
    """Self-check: the module-level skip plus per-parameter skips cover
    exactly the registered accelerated backends."""
    assert set(ACCELERATED) <= set(BACKEND_PRIORITY)
