"""Direct-solver substrate: the paper's band-Cholesky building block.

The paper's direct method is LAPACK ``DPBSV`` — band Cholesky factorization
plus banded triangular solves — applied to the SPD 5-point Poisson matrix.
This package provides that substrate in three tiers:

1. :func:`cholesky_banded_reference` / :func:`solve_banded_reference` —
   textbook scalar-loop band Cholesky.  Slow; exists as an independently
   checkable specification used by the tests.
2. :class:`BlockTridiagonalCholesky` — the production implementation.  The
   Poisson matrix in natural row-major ordering is block tridiagonal with
   (N-2)x(N-2) blocks, so band Cholesky reduces to a sequence of dense
   Cholesky / triangular-solve / SYRK block operations, all vectorized.
   Same O(n * w^2) = O(N^4) arithmetic as DPBSV.
3. ``backend="lapack"`` in :class:`DirectSolver` — scipy's binding of the
   very LAPACK routine family the paper used (``pbtrf``/``pbtrs`` via
   ``cholesky_banded``/``cho_solve_banded``), used for cross-validation and
   as the fast path at larger sizes.
"""

from repro.linalg.band import (
    bandwidth_of_grid,
    cholesky_banded_reference,
    poisson_band_matrix,
    solve_banded_reference,
)
from repro.linalg.blocktri import BlockTridiagonalCholesky, poisson_blocks
from repro.linalg.direct import DirectSolver, build_interior_rhs, scatter_interior
from repro.linalg.sparse_nd import (
    AxisStencilFactor,
    axis_stencil_matrix,
    solve_axis_stencil,
)

__all__ = [
    "AxisStencilFactor",
    "axis_stencil_matrix",
    "solve_axis_stencil",
    "BlockTridiagonalCholesky",
    "DirectSolver",
    "bandwidth_of_grid",
    "build_interior_rhs",
    "cholesky_banded_reference",
    "poisson_band_matrix",
    "poisson_blocks",
    "scatter_interior",
    "solve_banded_reference",
]
