"""Pluggable kernel backends: the hot loops as a tuning dimension.

The registry exposes the two backends by name:

* ``numpy`` — the vectorized reference implementation (always
  available, always byte-identical to itself: it *is* the ground
  truth);
* ``cnative`` — C kernels compiled on demand by the host's ``gcc``
  and loaded via ctypes.

``resolve_backend("auto")`` picks ``cnative`` where it can run, else
``numpy``; tuners, the store, and the serve layer all accept ``"auto"``
and persist the resolved name.  ``cnative`` is byte-identical to numpy
by contract (see :mod:`repro.kernels.base`), so backend choice changes
wall-clock only, never numerics.
"""

from __future__ import annotations

from typing import Any

from repro.kernels.base import KernelBackend, LevelKernels
from repro.kernels.cnative import CNativeBackend, kernel_cache_dir
from repro.kernels.numpy_backend import NumpyBackend

__all__ = [
    "BACKEND_PRIORITY",
    "KernelBackend",
    "LevelKernels",
    "available_backends",
    "backend_provenance",
    "get_backend",
    "kernel_cache_dir",
    "resolve_backend",
]

#: "auto" resolution order: fastest first, numpy as the always-on floor.
BACKEND_PRIORITY: tuple[str, ...] = ("cnative", "numpy")

_backends: dict[str, KernelBackend] = {}


def get_backend(name: str) -> KernelBackend:
    """The (singleton) backend registered under ``name``.

    Raises ``ValueError`` for unknown names — backend names are
    keyfields in the tuning store, so typos must fail loudly.
    """
    if name not in BACKEND_PRIORITY:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: "
            f"{', '.join(sorted(BACKEND_PRIORITY))} (or 'auto')"
        )
    backend = _backends.get(name)
    if backend is None:
        factory = {"numpy": NumpyBackend, "cnative": CNativeBackend}[name]
        backend = _backends[name] = factory()
    return backend


def available_backends() -> tuple[str, ...]:
    """Backends that can actually execute on this host, priority order."""
    return tuple(
        name for name in BACKEND_PRIORITY if get_backend(name).available()
    )


def resolve_backend(name: str = "auto") -> str:
    """Canonicalize a backend request.

    ``"auto"`` resolves to the best *available* backend on this host;
    an explicit name is validated but returned as-is even when
    unavailable here, because plans are routinely tuned for machines
    the tuner is not running on (the executor falls back to numpy at
    run time when the recorded backend cannot bind).
    """
    if name == "auto":
        for candidate in BACKEND_PRIORITY:
            if get_backend(candidate).available():
                return candidate
        return "numpy"
    get_backend(name)  # validates
    return name


def backend_provenance(name: str | None = None) -> dict[str, Any]:
    """Structured provenance for bench JSON output.

    With ``name`` given, that backend's record; otherwise a summary of
    every registered backend plus what ``"auto"`` resolves to.
    """
    if name is not None:
        return get_backend(resolve_backend(name)).provenance()
    return {
        "auto": resolve_backend("auto"),
        "backends": [get_backend(n).provenance() for n in BACKEND_PRIORITY],
    }
