"""The kernel backend protocol: pluggable hot-loop implementations.

The numerics of the reproduction live in a handful of hot loops —
red-black SOR / weighted-Jacobi sweeps, residual evaluation, and the
full-weighting / linear-interpolation transfers.  A *kernel backend*
provides alternative implementations of those loops for a
:class:`~repro.operators.base.StencilOperator`; the tuner treats the
choice of backend as a tuning dimension (see ``repro.tuner``), priced
per level through :class:`~repro.machines.profile.MachineProfile`.

Backends are **byte-identical by contract**: every entry point must
produce bit-for-bit the same float64 arrays as the NumPy reference
implementation (same floating-point expression, same evaluation order,
no FMA contraction).  The identity test suite (``tests/kernels``)
enforces the contract, so a tuned plan's iteration counts — and
therefore its accuracy guarantees — carry over unchanged whichever
backend executes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.operators.base import StencilOperator

__all__ = ["KernelBackend", "LevelKernels"]


@dataclass(frozen=True)
class LevelKernels:
    """Kernel entry points bound to one operator instance (one level).

    The callables mirror the signatures the plan executor already uses:

    * ``sor_sweeps(u, b, omega, sweeps)`` — in-place red-black SOR;
    * ``jacobi_sweeps(u, b, omega, sweeps)`` — in-place weighted Jacobi;
    * ``residual(u, b, out=None)`` — ``b - A u`` with a zeroed boundary;
    * ``restrict(fine, out=None)`` — full-weighting restriction;
    * ``interpolate_correction(u, coarse)`` — add the interpolated
      coarse correction to ``u`` in place.
    """

    backend: str
    sor_sweeps: Callable[..., np.ndarray]
    jacobi_sweeps: Callable[..., np.ndarray]
    residual: Callable[..., np.ndarray]
    restrict: Callable[..., np.ndarray]
    interpolate_correction: Callable[..., np.ndarray]


@runtime_checkable
class KernelBackend(Protocol):
    """One pluggable implementation family of the multigrid hot loops.

    ``supports`` is a static capability check (no compilation, no heavy
    imports); ``available`` probes whether the backend can actually run
    here (toolchain present, library built) and caches the answer;
    ``bind`` returns the kernels for a concrete operator or ``None`` when
    the family is unsupported; ``warmup`` performs the one-time compile
    so that cost never lands inside a timed trial.
    """

    name: str

    def available(self) -> bool:
        """Can this backend execute on this host?  Cached, cheap."""
        ...

    def supports(self, op: "StencilOperator") -> bool:
        """Does this backend implement kernels for ``op``'s family?

        Must be answerable without compiling anything — the DP tuners
        call it while pricing plans for machines they are not running
        on.
        """
        ...

    def bind(self, op: "StencilOperator") -> LevelKernels | None:
        """Kernels for ``op``, or ``None`` when unsupported/unavailable."""
        ...

    def warmup(self) -> None:
        """One-time compile of every kernel (idempotent)."""
        ...

    def provenance(self) -> dict[str, Any]:
        """Structured identity for bench JSON: name, version, status."""
        ...
