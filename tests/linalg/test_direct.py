"""Tests for the DirectSolver facade (all backends)."""

import numpy as np
import pytest

from repro.grids.poisson import apply_poisson, residual
from repro.grids.norms import residual_norm
from repro.linalg.direct import DirectSolver, build_interior_rhs, scatter_interior
from repro.workloads.distributions import make_problem

BACKENDS = ["block", "lapack", "reference"]


class TestDirectSolver:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovers_manufactured_solution(self, backend, rng):
        # Build b = A u_exact (with u_exact's own boundary); solving must
        # return u_exact to machine precision.
        n = 9
        u_exact = rng.standard_normal((n, n))
        b = apply_poisson(u_exact)
        x = u_exact.copy()
        x[1:-1, 1:-1] = 0.0
        DirectSolver(backend=backend).solve(x, b)
        np.testing.assert_allclose(x, u_exact, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_residual_machine_precision(self, backend):
        problem = make_problem("unbiased", 9, seed=5)
        x = problem.initial_guess()
        DirectSolver(backend=backend).solve(x, problem.b)
        scale = float(np.abs(problem.b).max())
        assert residual_norm(residual(x, problem.b)) <= 1e-9 * scale

    def test_backends_agree(self):
        problem = make_problem("biased", 17, seed=6)
        solutions = []
        for backend in BACKENDS:
            x = problem.initial_guess()
            DirectSolver(backend=backend).solve(x, problem.b)
            solutions.append(x)
        for other in solutions[1:]:
            np.testing.assert_allclose(solutions[0], other, rtol=1e-10)

    def test_boundary_untouched(self):
        problem = make_problem("unbiased", 9, seed=7)
        x = problem.initial_guess()
        boundary_before = x[0, :].copy()
        DirectSolver().solve(x, problem.b)
        np.testing.assert_array_equal(x[0, :], boundary_before)

    def test_caching_gives_same_answers(self):
        problem = make_problem("unbiased", 9, seed=8)
        cached = DirectSolver(backend="block", cache_factorization=True)
        uncached = DirectSolver(backend="block", cache_factorization=False)
        x1 = problem.initial_guess()
        x2 = problem.initial_guess()
        cached.solve(x1, problem.b)
        cached.solve(x1.copy(), problem.b)  # second call reuses the factor
        uncached.solve(x2, problem.b)
        np.testing.assert_allclose(x1, x2, rtol=1e-12)

    def test_cache_populated_only_when_enabled(self):
        problem = make_problem("unbiased", 9, seed=9)
        cached = DirectSolver(cache_factorization=True)
        uncached = DirectSolver(cache_factorization=False)
        cached.solve(problem.initial_guess(), problem.b)
        uncached.solve(problem.initial_guess(), problem.b)
        assert len(cached._cache) == 1
        assert len(uncached._cache) == 0

    def test_solved_copy_preserves_input(self):
        problem = make_problem("unbiased", 9, seed=10)
        x = problem.initial_guess()
        before = x.copy()
        out = DirectSolver().solved_copy(x, problem.b)
        np.testing.assert_array_equal(x, before)
        assert out is not x

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            DirectSolver(backend="magma")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DirectSolver().solve(np.zeros((9, 9)), np.zeros((5, 5)))


class TestRhsHelpers:
    def test_build_interior_rhs_folds_boundary(self):
        n = 5
        x = np.zeros((n, n))
        x[0, 1] = 2.0  # boundary north of interior point (1, 1)
        b = np.zeros((n, n))
        rhs = build_interior_rhs(x, b)
        inv_h2 = (n - 1.0) ** 2
        assert rhs[0] == pytest.approx(2.0 * inv_h2)
        assert rhs[1] == pytest.approx(0.0)

    def test_scatter_round_trip(self, rng):
        x = np.zeros((5, 5))
        flat = rng.standard_normal(9)
        scatter_interior(x, flat)
        np.testing.assert_array_equal(x[1:-1, 1:-1].reshape(-1), flat)

    def test_scatter_rejects_bad_length(self):
        with pytest.raises(ValueError):
            scatter_interior(np.zeros((5, 5)), np.zeros(8))
