"""Hypothesis property tests: smoothing and convergence per operator.

The load-bearing invariant for SOR smoothing on an SPD operator with
0 < omega < 2 is *monotone decrease of the energy norm of the error*
(Ostrowski-Reich); the residual 2-norm itself may wiggle for
over-relaxed sweeps, so the residual property is asserted cumulatively.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grids.norms import residual_norm
from repro.operators import make_operator, shared_operator

OPERATORS = [
    "poisson",
    "varcoeff",
    "varcoeff(field=bump,amplitude=4.0)",
    "anisotropic",
    "anisotropic(epsilon=0.01)",
]


def _problem(op, seed):
    rng = np.random.default_rng(seed)
    n = op.n
    x = np.zeros((n, n))
    x[0, :] = rng.uniform(-1e3, 1e3, size=n)
    x[-1, :] = rng.uniform(-1e3, 1e3, size=n)
    x[:, 0] = rng.uniform(-1e3, 1e3, size=n)
    x[:, -1] = rng.uniform(-1e3, 1e3, size=n)
    b = rng.uniform(-1e3, 1e3, size=(n, n))
    return x, b


def _energy(op, e):
    """||e||_A^2 over the interior (boundary of e is zero)."""
    return float(np.sum(e * op.apply(e)))


class TestSmootherProperties:
    @pytest.mark.parametrize("name", OPERATORS)
    @given(seed=st.integers(0, 10_000), omega=st.sampled_from([0.8, 1.0, 1.15, 1.5]))
    @settings(max_examples=20, deadline=None)
    def test_sor_monotonically_reduces_energy_error(self, name, seed, omega):
        op = shared_operator(name, 17)
        x, b = _problem(op, seed)
        exact = op.direct_solve(x.copy(), b)
        energy = _energy(op, x - exact)
        for _ in range(8):
            op.sor_sweeps(x, b, omega, 1)
            nxt = _energy(op, x - exact)
            assert nxt <= energy * (1.0 + 1e-9)
            energy = nxt

    @pytest.mark.parametrize("name", OPERATORS)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_sor_reduces_residual_overall(self, name, seed):
        op = shared_operator(name, 17)
        x, b = _problem(op, seed)
        r0 = residual_norm(op.residual(x, b))
        if r0 == 0.0:
            return
        op.sor_sweeps(x, b, 1.15, 15)
        assert residual_norm(op.residual(x, b)) < r0

    @pytest.mark.parametrize("name", OPERATORS)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_jacobi_monotonically_reduces_energy_error(self, name, seed):
        op = shared_operator(name, 9)
        x, b = _problem(op, seed)
        exact = op.direct_solve(x.copy(), b)
        energy = _energy(op, x - exact)
        for _ in range(8):
            op.jacobi_sweeps(x, b, 2.0 / 3.0, 1)
            nxt = _energy(op, x - exact)
            assert nxt <= energy * (1.0 + 1e-9)
            energy = nxt


class TestTwoGridConvergence:
    """Two-grid cycle (smooth, exact coarse solve, smooth) contracts the
    error for every operator family; the anisotropic bound is looser —
    point smoothing degrades there, which is exactly why its tuned cycle
    shape differs."""

    CASES = [
        ("poisson", 0.25),
        ("varcoeff", 0.35),
        ("varcoeff(field=bump,amplitude=4.0)", 0.35),
        ("anisotropic", 0.75),
    ]

    @pytest.mark.parametrize("name,bound", CASES)
    def test_two_grid_factor(self, name, bound):
        from repro.tuner.choices import DirectChoice, RecurseChoice
        from repro.tuner.executor import PlanExecutor
        from repro.tuner.plan import fixed_vplan

        n = 33
        op = make_operator(name, n)
        x, b = _problem(op, seed=123)
        exact = op.direct_solve(x.copy(), b)
        err = np.sqrt(_energy(op, x - exact))
        # Direct solve at the coarse size (17, level 4) => a genuine
        # two-grid cycle.
        plan = fixed_vplan([DirectChoice()] * 4 + [RecurseChoice(0, 1)])
        executor = PlanExecutor(operator=name)
        factors = []
        for _ in range(4):
            executor.run_v(plan, x, b, 0)
            nxt = np.sqrt(_energy(op, x - exact))
            if err == 0.0 or nxt == 0.0:
                break
            factors.append(nxt / err)
            err = nxt
        assert factors and max(factors) < bound
