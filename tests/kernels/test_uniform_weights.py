"""Scalar-weight compiled kernels for 5-point stencils with uniform weights.

``FivePointOperator.uniform_weights`` holds the five weights as scalars
when each weight array has one bit pattern over the interior (the only
entries a kernel reads), else ``None``.  The cnative backend binds
``rbsor2d_weights``/``residual2d_weights`` for the first kind and the
array kernels for the second.  These tests pin the bitwise check
(one ulp or a signed zero breaks uniformity, the boundary ring does
not), which kernels a bind selects, and that every case reproduces the
NumPy bytes.
"""

import numpy as np
import pytest

from repro.grids.poisson import rhs_scale
from repro.kernels import cnative, get_backend
from repro.operators.base import FivePointOperator
from repro.operators.spec import POISSON, shared_operator

WEIGHT_NAMES = ("north", "south", "west", "east", "diag")


@pytest.fixture(scope="module")
def backend():
    backend = get_backend("cnative")
    if not backend.available():
        pytest.skip("cnative is unavailable on this host")
    backend.warmup()
    return backend


def _bits(values) -> list[int]:
    return [int(v) for v in np.asarray(values, dtype=np.float64).view(np.uint64)]


def _poisson_weights(n: int) -> dict[str, np.ndarray]:
    """Constant Poisson weights as dense arrays, one copy per weight."""
    inv_h2 = rhs_scale(n)
    weights = {name: np.full((n, n), inv_h2) for name in WEIGHT_NAMES[:4]}
    weights["diag"] = np.full((n, n), 4.0 * inv_h2)
    return weights


def _five_point(n: int, weights: dict[str, np.ndarray]) -> FivePointOperator:
    return FivePointOperator(POISSON, n, *(weights[name] for name in WEIGHT_NAMES))


def _nudged(n: int, name: str) -> FivePointOperator:
    """One interior weight one ulp above its neighbours."""
    weights = _poisson_weights(n)
    c = n // 2
    weights[name][c, c] = np.nextafter(weights[name][c, c], np.inf)
    return _five_point(n, weights)


def _signed_zero(n: int) -> FivePointOperator:
    """West and east couplings of zero, with one interior -0.0."""
    weights = _poisson_weights(n)
    weights["west"][:] = 0.0
    weights["east"][:] = 0.0
    weights["east"][n // 2, n // 2] = -0.0
    return _five_point(n, weights)


def _ring_only(n: int) -> FivePointOperator:
    """Different weights on the boundary ring only (a zero boundary
    diagonal included), uniform over the interior."""
    weights = _poisson_weights(n)
    for k, name in enumerate(WEIGHT_NAMES):
        ring = np.ones((n, n), dtype=bool)
        ring[1:-1, 1:-1] = False
        weights[name][ring] = 0.0 if name == "diag" else 3.0 + k
    return _five_point(n, weights)


CASES = {
    "anisotropic(epsilon=0.1)": lambda n: shared_operator("anisotropic(epsilon=0.1)", n),
    "anisotropic(epsilon=0.01)": lambda n: shared_operator("anisotropic(epsilon=0.01)", n),
    "varcoeff": lambda n: shared_operator("varcoeff", n),
    **{f"nudged-{name}": (lambda n, name=name: _nudged(n, name)) for name in WEIGHT_NAMES},
    "signed-zero": _signed_zero,
    "ring-only": _ring_only,
}
UNIFORM = {"anisotropic(epsilon=0.1)", "anisotropic(epsilon=0.01)", "ring-only"}


class TestUniformWeights:
    @pytest.mark.parametrize("epsilon", [0.1, 0.01])
    @pytest.mark.parametrize("n", [3, 33, 129])
    def test_anisotropic_weights_are_its_five_scalars(self, epsilon, n):
        op = shared_operator(f"anisotropic(epsilon={epsilon})", n)
        inv_h2 = rhs_scale(n)
        expected = (
            inv_h2, inv_h2, epsilon * inv_h2, epsilon * inv_h2,
            2.0 * (1.0 + epsilon) * inv_h2,
        )
        assert op.uniform_weights is not None
        assert _bits(op.uniform_weights) == _bits(expected)
        assert _bits(op.uniform_weights) == _bits(
            [getattr(op, name)[1, 1] for name in WEIGHT_NAMES]
        )

    @pytest.mark.parametrize("n", [33, 129])
    def test_varcoeff_weights_are_not_uniform(self, n):
        assert shared_operator("varcoeff", n).uniform_weights is None

    @pytest.mark.parametrize("name", WEIGHT_NAMES)
    def test_one_ulp_breaks_uniformity(self, name):
        assert _five_point(17, _poisson_weights(17)).uniform_weights is not None
        assert _nudged(17, name).uniform_weights is None

    def test_signed_zero_split_breaks_uniformity(self):
        assert _signed_zero(17).uniform_weights is None

    def test_boundary_ring_does_not_break_uniformity(self):
        n = 17
        inv_h2 = rhs_scale(n)
        op = _ring_only(n)
        assert op.uniform_weights is not None
        assert _bits(op.uniform_weights) == _bits([inv_h2] * 4 + [4.0 * inv_h2])


class _RecordingLibrary:
    """Stands in for the loaded library and records which kernels run."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.called: list[str] = []

    def __getattr__(self, name):
        fn = getattr(self._lib, name)

        def call(*args):
            self.called.append(name)
            return fn(*args)

        return call


class TestKernelSelection:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bind_selects_scalar_kernels_for_uniform_weights(self, backend, case):
        n = 33
        op = CASES[case](n)
        lib = _RecordingLibrary(cnative._load_library())
        kernels = cnative._bind_stencil2d(lib, op)
        rng = np.random.default_rng(5)
        u = rng.uniform(-1.0, 1.0, size=(n, n))
        b = rng.uniform(-1.0, 1.0, size=(n, n))
        kernels.sor_sweeps(u, b, op.omega_opt(), 1)
        kernels.residual(u, b)
        suffix = "weights" if case in UNIFORM else "stencil"
        assert lib.called == [f"rbsor2d_{suffix}", f"residual2d_{suffix}"]


class TestBytesMatchNumpy:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n", [33, 129])
    def test_kernels_match_numpy(self, backend, case, n):
        op = CASES[case](n)
        fast = backend.bind(op)
        ref = get_backend("numpy").bind(op)
        rng = np.random.default_rng(n)
        u0 = rng.uniform(-1.0, 1.0, size=(n, n))
        b = rng.uniform(-1.0, 1.0, size=(n, n))
        omega = op.omega_opt()
        for sweeps in (1, 3, 266):
            got, want = u0.copy(), u0.copy()
            fast.sor_sweeps(got, b, omega, sweeps)
            ref.sor_sweeps(want, b, omega, sweeps)
            assert got.tobytes() == want.tobytes(), f"sor x{sweeps}"
        got, want = u0.copy(), u0.copy()
        fast.jacobi_sweeps(got, b, 0.8, 3)
        ref.jacobi_sweeps(want, b, 0.8, 3)
        assert got.tobytes() == want.tobytes(), "jacobi"
        assert fast.residual(u0, b).tobytes() == ref.residual(u0, b).tobytes()
