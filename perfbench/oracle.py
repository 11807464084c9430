"""Independent reference solutions, assembled with scipy.sparse.

The oracle never calls the solver stack it checks.  It rebuilds each
operator's matrix from the documented stencils on the vertex grid of
the unit square (mesh width h = 1/(n-1), Dirichlet data on the boundary
shell, unknowns on the interior):

* ``poisson``     -- 5-point  -laplacian: 4/h^2 on the diagonal, -1/h^2 off it;
* ``anisotropic`` -- -(eps u_xx + u_yy), x along columns: the row
  neighbours couple with 1/h^2, the column neighbours with eps/h^2;
* ``varcoeff``    -- -div(c grad u): the coupling through each face is
  the mean of ``c`` at its two vertices over h^2, the diagonal is the
  sum of the four face couplings;
* ``poisson3d``   -- 7-point -laplacian: 6/h^2 on the diagonal.

Only the coefficient field ``c`` is taken from the program (it is the
input that defines the varcoeff problem, not part of the solver).
Boundary values move to the right-hand side.  2-D systems are factored
once per (operator, size) with sparse LU; 3-D systems, whose LU fill
makes a factorization take seconds, are solved by conjugate gradients
with two refinement passes, to a residual near machine precision.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

#: anisotropy of the program's default ``anisotropic`` operator
EPSILON = 0.1


def _interior(ndim: int) -> tuple[slice, ...]:
    return (slice(1, -1),) * ndim


def _axis_couplings(family: str, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis: (coupling to the lower neighbour, to the upper neighbour),
    each an array over the full grid, valid at interior points."""
    inv_h2 = float(n - 1) ** 2
    if family in ("poisson", "anisotropic"):
        weights = (1.0, EPSILON if family == "anisotropic" else 1.0)
        return [(np.full((n, n), w * inv_h2),) * 2 for w in weights]
    if family == "poisson3d":
        return [(np.full((n, n, n), inv_h2),) * 2 for _ in range(3)]
    if family == "varcoeff":
        from repro.operators.coefficients import coefficient_field

        c = coefficient_field("waves", n, amplitude=1.0, kx=2, ky=2, seed=0)
        out = []
        for axis in (0, 1):
            lower = np.zeros((n, n))
            upper = np.zeros((n, n))
            face = 0.5 * (np.take(c, range(n - 1), axis) + np.take(c, range(1, n), axis))
            idx_lo = [slice(None)] * 2
            idx_hi = [slice(None)] * 2
            idx_lo[axis] = slice(1, None)
            idx_hi[axis] = slice(0, n - 1)
            lower[tuple(idx_lo)] = face * inv_h2
            upper[tuple(idx_hi)] = face * inv_h2
            out.append((lower, upper))
        return out
    raise ValueError(f"no oracle stencil for operator family {family!r}")


class Oracle:
    """Assembled interior system for one (family, n), with its solver."""

    def __init__(self, family: str, n: int) -> None:
        self.family = family
        self.n = n
        self.ndim = 3 if family == "poisson3d" else 2
        m = n - 2
        shape = (m,) * self.ndim
        inner = _interior(self.ndim)
        ids = np.arange(m**self.ndim).reshape(shape)
        rows, cols, vals = [], [], []
        diag = np.zeros(shape)
        #: (boundary-neighbour mask on the interior, coupling, offset) per side
        self._boundary_terms = []
        for axis, (lower, upper) in enumerate(_axis_couplings(family, n)):
            for coupling, step in ((lower[inner], -1), (upper[inner], +1)):
                diag += coupling
                shifted = np.roll(ids, -step, axis=axis)
                edge = np.zeros(shape, dtype=bool)
                edge_idx = [slice(None)] * self.ndim
                edge_idx[axis] = 0 if step < 0 else m - 1
                edge[tuple(edge_idx)] = True
                keep = ~edge
                rows.append(ids[keep])
                cols.append(shifted[keep])
                vals.append(-coupling[keep])
                self._boundary_terms.append((edge, coupling, axis, step))
        rows.append(ids.ravel())
        cols.append(ids.ravel())
        vals.append(diag.ravel())
        size = m**self.ndim
        self.matrix = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        )
        self._lu = spl.splu(self.matrix) if self.ndim == 2 else None

    def rhs(self, b: np.ndarray, boundary_grid: np.ndarray) -> np.ndarray:
        """Interior right-hand side with the Dirichlet data moved over."""
        inner = _interior(self.ndim)
        rhs = np.array(b[inner], dtype=np.float64)
        for edge, coupling, axis, step in self._boundary_terms:
            neighbour = np.roll(boundary_grid, -step, axis=axis)[inner]
            rhs[edge] += coupling[edge] * neighbour[edge]
        return rhs.ravel()

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            x = self._lu.solve(rhs)
            return x + self._lu.solve(rhs - self.matrix @ x)
        scale = float(np.linalg.norm(rhs)) or 1.0
        x = np.zeros_like(rhs)
        for _ in range(3):
            dx, info = spl.cg(self.matrix, rhs - self.matrix @ x, rtol=1e-15,
                              atol=1e-16 * scale, maxiter=20 * rhs.size)
            if info < 0:
                raise RuntimeError(f"oracle CG broke down ({self.family}, n={self.n})")
            x += dx
        return x

    def solve(self, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """x* for right-hand side ``b`` and the boundary carried by ``x0``."""
        boundary_grid = np.array(x0, dtype=np.float64)
        boundary_grid[_interior(self.ndim)] = 0.0
        interior = self._solve_interior(self.rhs(b, boundary_grid))
        x = boundary_grid
        x[_interior(self.ndim)] = interior.reshape((self.n - 2,) * self.ndim)
        return x

    def residual_ratio(self, x: np.ndarray, b: np.ndarray) -> float:
        """||b - A x|| / ||b|| on the interior system (self-check)."""
        boundary_grid = np.array(x, dtype=np.float64)
        boundary_grid[_interior(self.ndim)] = 0.0
        rhs = self.rhs(b, boundary_grid)
        r = rhs - self.matrix @ x[_interior(self.ndim)].ravel()
        return float(np.linalg.norm(r) / np.linalg.norm(rhs))


def accuracy(x0: np.ndarray, x: np.ndarray, x_star: np.ndarray) -> float:
    """Delivered accuracy ||x0 - x*|| / ||x - x*|| over the interior."""
    inner = _interior(x0.ndim)
    e_in = float(np.linalg.norm(x0[inner] - x_star[inner]))
    e_out = float(np.linalg.norm(x[inner] - x_star[inner]))
    return np.inf if e_out == 0.0 else e_in / e_out
