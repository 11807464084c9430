"""Operation metering.

Solvers record *what* they did (which primitive op, at which grid size, how
many times) into an :class:`OpMeter`.  A :class:`~repro.machines.profile.
MachineProfile` then prices the meter, yielding a deterministic simulated
runtime for any target architecture.  This separation is what lets a single
numerical tuning run be re-priced for Intel/AMD/Sun profiles: the numerics
(and therefore iteration counts) are architecture-independent, while the
cost landscape is not.

This module is dependency-free so every solver layer can import it without
cycles.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterator

__all__ = [
    "ACCELERABLE_OPS",
    "OpMeter",
    "OPS",
    "OPS_2D",
    "backend_op",
    "base_op",
    "dim_op",
]

#: Primitive operations on 2-D grids.  ``n`` is always the fine-grid
#: side length the op touches.
OPS_2D = (
    "relax",  # one red-black SOR (or Jacobi) sweep on an n x n grid
    "residual",  # residual computation on an n x n grid
    "restrict",  # full-weighting restriction from an n x n grid
    "interpolate",  # bilinear interpolation + correction add onto n x n
    "direct",  # band-Cholesky factor + solve at size n (DPBSV-style)
    "direct_solve",  # banded triangular solves only (cached factorization)
    "norm",  # interior norm on an n x n grid
    "copy",  # grid copy / zero-fill at size n
)

#: The 3-D analogues (7-point sweeps, 27-point transfers, sparse-LU
#: direct solves) touch n**3 points at side length n, so they are
#: distinct ops: the cost model prices them with 3-D point counts.
OPS_3D = tuple(f"{op}3d" for op in OPS_2D)

#: Every primitive operation the cost model understands.
OPS = OPS_2D + OPS_3D


#: Stencil ops a non-default kernel backend can accelerate.  Direct
#: solves, norms, and copies always run the reference implementation, so
#: they are never backend-qualified.
ACCELERABLE_OPS = ("relax", "residual", "restrict", "interpolate")


def dim_op(op: str, ndim: int) -> str:
    """The meter op name for a base op at a grid dimensionality.

    2-D keeps the historical bare names (stored plans and meters stay
    byte-identical); 3-D appends the ``3d`` suffix.
    """
    if ndim == 2:
        return op
    if ndim == 3:
        return op + "3d"
    raise ValueError(f"no op vocabulary for ndim={ndim}")


def base_op(op: str) -> str:
    """Strip a backend qualifier: ``"relax@cnative"`` -> ``"relax"``."""
    base, _, _ = op.partition("@")
    return base


def backend_op(op: str, backend: str) -> str:
    """Qualify a meter op with the kernel backend executing it.

    The default ``numpy`` backend keeps the historical bare names (stored
    meters and plan prices stay byte-identical), as do ops no backend
    accelerates; everything else gains an ``@backend`` suffix so the cost
    model can price the accelerated kernel.
    """
    if not backend or backend == "numpy":
        return op
    family = op[:-2] if op.endswith("3d") else op
    if family not in ACCELERABLE_OPS:
        return op
    return f"{op}@{backend}"


def _validate_op(op: str) -> None:
    if op in OPS:
        return
    base, sep, backend = op.partition("@")
    family = base[:-2] if base.endswith("3d") else base
    if sep and backend and base in OPS and family in ACCELERABLE_OPS:
        return
    raise ValueError(f"unknown op {op!r}; known: {OPS} (optionally '@backend')")


class OpMeter:
    """Multiset of (op, n) events with merge and pricing hooks."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[tuple[str, int]] = Counter()

    def charge(self, op: str, n: int, times: int = 1) -> None:
        """Record ``times`` occurrences of ``op`` at grid size ``n``.

        ``op`` is either a bare primitive or a backend-qualified stencil
        op like ``"relax@cnative"`` (see :func:`backend_op`).
        """
        _validate_op(op)
        if times:
            self.counts[(op, n)] += times

    def merge(self, other: "OpMeter", times: int = 1) -> None:
        """Fold ``times`` copies of ``other``'s counts into this meter."""
        if times == 1:
            self.counts.update(other.counts)
        elif times > 1:
            for key, cnt in other.counts.items():
                self.counts[key] += cnt * times

    def scaled(self, times: int) -> "OpMeter":
        """A new meter holding ``times`` copies of these counts."""
        out = OpMeter()
        out.merge(self, times)
        return out

    def total(self, op: str) -> int:
        """Total count of ``op`` across all sizes (any backend qualifier)."""
        return sum(
            cnt for (name, _), cnt in self.counts.items() if base_op(name) == op
        )

    def items(self) -> Iterator[tuple[tuple[str, int], int]]:
        return iter(self.counts.items())

    def price(self, op_seconds: Callable[[str, int], float]) -> float:
        """Sum of ``count * op_seconds(op, n)`` over the recorded ops.

        The one summation every pricing uses.  It is a plain left-to-right
        loop: the builtin ``sum`` compensates float rounding from Python
        3.12 on, which could move the last bit of a price between
        interpreters.
        """
        total = 0.0
        for (op, n), count in self.counts.items():
            total += count * op_seconds(op, n)
        return total

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpMeter):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{op}@{n}x{cnt}" for (op, n), cnt in sorted(self.counts.items()))
        return f"OpMeter({body})"
