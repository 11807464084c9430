"""The operator protocol and the generic variable-weight 5-point kernel.

A :class:`StencilOperator` is one discrete operator *bound to a grid
size*: it applies A, computes residuals, smooths (red-black SOR /
weighted Jacobi parameterized by the true stencil weights), solves the
interior system exactly (banded Cholesky), and derives its next-coarser
self by rediscretization (``coarsen``).  Everything above this layer —
cycles, tuners, plan executors, campaigns — talks to this interface and
never to a concrete stencil.

:class:`FivePointOperator` implements the protocol for any symmetric
5-point stencil given as full-grid weight arrays; the variable-coefficient
and anisotropic families subclass it and only build weights.  The
constant-coefficient Poisson family instead delegates to the original
hand-tuned kernels (see :mod:`repro.operators.poisson`) so the default
path stays byte-identical to the pre-operator-layer code.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.grids.grid import coarsen_size, prepare_out
from repro.grids.poisson import rhs_scale
from repro.operators.spec import OperatorSpec
from repro.relax.jacobi import jacobi_sweeps_stencil
from repro.relax.sor import sor_redblack_stencil
from repro.relax.weights import omega_opt
from repro.util.validation import check_square_grid, level_of_size

__all__ = ["FivePointOperator", "StencilOperator"]


def _uniform_interior(
    weights: tuple[np.ndarray, ...],
) -> tuple[float, ...] | None:
    """Each weight's single interior value, or None if any weight's
    interior holds two bit patterns.  The comparison is bitwise, so
    -0.0 against +0.0, or two NaN payloads, count as different."""
    values = []
    for w in weights:
        if w.dtype != np.float64:
            return None
        bits = w[1:-1, 1:-1].view(np.uint64)
        if not (bits == bits[0, 0]).all():
            return None
        values.append(float(w[1, 1]))
    return tuple(values)


class StencilOperator(ABC):
    """One discrete operator bound to grid size ``n`` (see module docs).

    ``ndim`` is the grid dimensionality the operator's kernels act on
    (2 for the historical families, 3 for the ``*3d`` families); it
    matches the registered family's ``ndim``.
    """

    def __init__(self, spec: OperatorSpec, n: int, ndim: int = 2) -> None:
        level_of_size(n)  # validates n = 2**k + 1
        self.spec = spec
        self.n = n
        self.ndim = ndim
        self._coarse: StencilOperator | None = None

    # -- kernels ----------------------------------------------------------

    @abstractmethod
    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A u on the interior; zero on the boundary ring."""

    @abstractmethod
    def residual(
        self, u: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """b - A u on the interior; zero on the boundary ring."""

    @abstractmethod
    def sor_sweeps(
        self, u: np.ndarray, b: np.ndarray, omega: float, sweeps: int = 1
    ) -> np.ndarray:
        """Red-black SOR sweeps on ``u`` in place."""

    @abstractmethod
    def jacobi_sweeps(
        self, u: np.ndarray, b: np.ndarray, omega: float, sweeps: int = 1
    ) -> np.ndarray:
        """Weighted-Jacobi sweeps on ``u`` in place."""

    @abstractmethod
    def diagonal(self) -> np.ndarray:
        """The stencil diagonal of A as a full-grid array."""

    @abstractmethod
    def direct_solve(self, x: np.ndarray, b: np.ndarray, solver=None) -> np.ndarray:
        """Exact interior solve with Dirichlet data from ``x``'s ring.

        ``solver`` is a legacy Poisson :class:`~repro.linalg.direct.
        DirectSolver` honored only by the constant-coefficient family
        (it keeps that path byte-identical and shares its factorization
        cache); generic operators own their factorizations.
        """

    # -- shared behaviour -------------------------------------------------

    def rhs_scale(self) -> float:
        """The 1/h**2 discretization factor at this size."""
        return rhs_scale(self.n)

    def omega_opt(self) -> float:
        """Standalone-SOR weight.  The Poisson-optimal 2/(1 + sin(pi h))
        is used for every family: for non-Poisson operators it is a
        heuristic, and trained iteration counts absorb the difference."""
        return omega_opt(self.n)

    def coarsen(self) -> "StencilOperator":
        """The rediscretized operator on the next-coarser grid.

        Resolved through the shared per-(spec, size) cache, so coarse
        hierarchies (and their direct-solve factorizations) are shared
        with every other consumer of the same operator.
        """
        if self._coarse is None:
            from repro.operators.spec import shared_operator

            self._coarse = shared_operator(self.spec, coarsen_size(self.n))
        return self._coarse

    def fingerprint(self) -> str:
        """Stable identity of the operator family + parameters."""
        return self.spec.fingerprint()

    def _check_size(self, u: np.ndarray) -> None:
        """Guard for the kernels: the operator is bound to one grid shape."""
        if u.ndim != self.ndim:
            raise ValueError(
                f"operator is {self.ndim}-D, grid has ndim={u.ndim}"
            )
        if u.shape[0] != self.n:
            raise ValueError(
                f"operator bound to n={self.n}, grid is {u.shape[0]}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec.canonical()}, n={self.n})"


class FivePointOperator(StencilOperator):
    """Generic symmetric 5-point stencil with per-point weights.

    (A u)_ij = diag_ij u_ij - north_ij u_{i-1,j} - south_ij u_{i+1,j}
               - west_ij u_{i,j-1} - east_ij u_{i,j+1}

    Weight arrays are full-grid (n, n); only interior entries are read.
    The stencil must be symmetric (north_{i+1,j} == south_{i,j},
    east_{i,j} == west_{i,j+1} on interior couplings) so the interior
    matrix admits a banded Cholesky factorization.
    """

    def __init__(
        self,
        spec: OperatorSpec,
        n: int,
        north: np.ndarray,
        south: np.ndarray,
        west: np.ndarray,
        east: np.ndarray,
        diag: np.ndarray,
    ) -> None:
        super().__init__(spec, n)
        for name, arr in (
            ("north", north), ("south", south), ("west", west),
            ("east", east), ("diag", diag),
        ):
            if arr.shape != (n, n):
                raise ValueError(f"{name} shape {arr.shape} != ({n}, {n})")
        if not np.allclose(south[1:-2, 1:-1], north[2:-1, 1:-1]):
            raise ValueError("stencil is not symmetric (south/north mismatch)")
        if not np.allclose(east[1:-1, 1:-2], west[1:-1, 2:-1]):
            raise ValueError("stencil is not symmetric (east/west mismatch)")
        self.north = north
        self.south = south
        self.west = west
        self.east = east
        self.diag = diag
        # Residual needs -diag per call; the stencil is immutable after
        # construction, so materialize the negation once.
        self._neg_diag = -diag[1:-1, 1:-1]
        #: (north, south, west, east, diag) as floats when each weight has
        #: one bit pattern over the interior (the only entries the kernels
        #: read), else None; compiled backends then take scalar kernels.
        self.uniform_weights = _uniform_interior(
            (north, south, west, east, diag)
        )
        self._factor: np.ndarray | None = None

    # -- kernels ----------------------------------------------------------

    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        check_square_grid(u, "u")
        self._check_size(u)
        out = prepare_out(out, u.shape, u.dtype, "u")
        acc = out[1:-1, 1:-1]
        np.multiply(u[1:-1, 1:-1], self.diag[1:-1, 1:-1], out=acc)
        acc -= self.north[1:-1, 1:-1] * u[:-2, 1:-1]
        acc -= self.south[1:-1, 1:-1] * u[2:, 1:-1]
        acc -= self.west[1:-1, 1:-1] * u[1:-1, :-2]
        acc -= self.east[1:-1, 1:-1] * u[1:-1, 2:]
        return out

    def residual(
        self, u: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        check_square_grid(u, "u")
        self._check_size(u)
        if b.shape != u.shape:
            raise ValueError(f"b shape {b.shape} != u shape {u.shape}")
        out = prepare_out(out, u.shape, u.dtype, "u")
        acc = out[1:-1, 1:-1]
        np.multiply(u[1:-1, 1:-1], self._neg_diag, out=acc)
        acc += self.north[1:-1, 1:-1] * u[:-2, 1:-1]
        acc += self.south[1:-1, 1:-1] * u[2:, 1:-1]
        acc += self.west[1:-1, 1:-1] * u[1:-1, :-2]
        acc += self.east[1:-1, 1:-1] * u[1:-1, 2:]
        acc += b[1:-1, 1:-1]
        return out

    def sor_sweeps(
        self, u: np.ndarray, b: np.ndarray, omega: float, sweeps: int = 1
    ) -> np.ndarray:
        self._check_size(u)
        return sor_redblack_stencil(
            u, b, self.north, self.south, self.west, self.east, self.diag,
            omega, sweeps,
        )

    def jacobi_sweeps(
        self, u: np.ndarray, b: np.ndarray, omega: float, sweeps: int = 1
    ) -> np.ndarray:
        self._check_size(u)
        return jacobi_sweeps_stencil(u, b, self.diag, self.residual, omega, sweeps)

    def diagonal(self) -> np.ndarray:
        return self.diag

    # -- direct solve -----------------------------------------------------

    def direct_solve(self, x: np.ndarray, b: np.ndarray, solver=None) -> np.ndarray:
        """Banded-Cholesky interior solve (``solver`` is ignored: legacy
        Poisson solvers cannot represent this stencil)."""
        check_square_grid(x, "x")
        self._check_size(x)
        if b.shape != x.shape:
            raise ValueError(f"b shape {b.shape} != x shape {x.shape}")
        if self._factor is None:
            from scipy.linalg import cholesky_banded

            self._factor = cholesky_banded(self._band_matrix(), lower=True)
        from scipy.linalg import cho_solve_banded

        rhs = self._interior_rhs(x, b)
        flat = cho_solve_banded((self._factor, True), rhs)
        x[1:-1, 1:-1] = flat.reshape(self.n - 2, self.n - 2)
        return x

    def _band_matrix(self) -> np.ndarray:
        """Lower band storage of the interior matrix (row-major unknowns)."""
        m = self.n - 2
        size = m * m
        ab = np.zeros((m + 1, size))
        ab[0] = self.diag[1:-1, 1:-1].reshape(-1)
        # First subdiagonal: -east coupling within a grid row, zero across
        # row boundaries (j = m-1 has no east interior neighbour).
        east = -self.east[1:-1, 1:-1].reshape(-1)
        east[m - 1 :: m] = 0.0
        ab[1, : size - 1] = east[:-1]
        # Subdiagonal m: -south coupling to the next grid row.
        ab[m, : size - m] = -self.south[1:-2, 1:-1].reshape(-1)
        return ab

    def _interior_rhs(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Flat interior RHS with the Dirichlet ring folded in."""
        rhs = b[1:-1, 1:-1].astype(np.float64, copy=True)
        rhs[0, :] += self.north[1, 1:-1] * x[0, 1:-1]
        rhs[-1, :] += self.south[-2, 1:-1] * x[-1, 1:-1]
        rhs[:, 0] += self.west[1:-1, 1] * x[1:-1, 0]
        rhs[:, -1] += self.east[1:-1, -2] * x[1:-1, -1]
        return rhs.reshape(-1)
