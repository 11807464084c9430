"""Red-Black SOR sweeps, vectorized with slice arithmetic.

A sweep updates all red points (index-sum even over interior indices), then
all black points.  Within a colour, every neighbour of an updated point has
the other colour (the stencils couple only along axes), so the whole colour
updates as one vectorized expression while remaining a true
Gauss-Seidel-style sweep.  This holds in any dimension: 3-D inputs branch
into the per-axis-coefficient 7-point sweeps (:func:`sor_redblack_axes3d`).

Each colour is one stride-2 slice of the raveled grid (:func:`_color_span`),
its neighbours the same slice shifted by an axis stride, so a colour costs
one short run of ufunc calls whatever the dimension.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from repro.grids.grid import mesh_width
from repro.util.validation import check_cube_grid, check_square_grid

__all__ = [
    "sor_redblack",
    "sor_redblack_axes3d",
    "sor_redblack_reference",
    "sor_redblack_stencil",
    "sor_sweeps",
]


@functools.lru_cache(maxsize=None)
def _color_span(shape: tuple[int, ...], parity: int) -> tuple[int, int, np.ndarray]:
    """One colour of the raveled grid as ``(start, stop, mask)``: the slice
    ``start:stop:2`` and which of its lanes are interior points.

    Grid sides are odd (2**k + 1), so every axis stride is odd and a
    point's colour (its index-sum parity) is its flat index's parity.  The
    slice runs from the first to the last interior point, so shifting it by
    an axis stride gives that neighbour of every lane.
    """
    n = shape[0]
    first = sum(n**axis for axis in range(len(shape)))
    start = first + (first - parity) % 2
    stop = (n - 2) * first + 1
    coords = np.unravel_index(np.arange(start, stop, 2), shape)
    mask = np.logical_and.reduce([(c >= 1) & (c <= n - 2) for c in coords])
    mask.setflags(write=False)
    return start, stop, mask


def _sweeps_in_place(
    u: np.ndarray, sweeps: int, sweep_color: Callable[..., None], *args
) -> np.ndarray:
    """Run ``sweeps`` red-then-black ``sweep_color(flat_u, *args, parity)``
    phases; a non-contiguous ``u`` is swept as a C-contiguous copy and
    written back."""
    work = np.ascontiguousarray(u)
    flat = work.reshape(-1)
    for _ in range(sweeps):
        sweep_color(flat, *args, 0)
        sweep_color(flat, *args, 1)
    if work is not u:
        u[...] = work
    return u


def _relax_color(
    uf: np.ndarray, s: int, e: int, mask: np.ndarray, omega: float, gs: np.ndarray
) -> None:
    """``c = (1 - omega) c + gs`` on the colour's interior lanes, where ``gs``
    is the Gauss-Seidel value already scaled by ``omega``."""
    c = uf[s:e:2]
    new = c * (1.0 - omega)
    new += gs
    np.copyto(c, new, where=mask)


def _sweep_color(
    uf: np.ndarray, bf: np.ndarray, n: int, h2: float, omega: float, parity: int
) -> None:
    s, e, mask = _color_span((n, n), parity)
    stencil = uf[s - n:e - n:2] + uf[s + n:e + n:2]
    stencil += uf[s - 1:e - 1:2]
    stencil += uf[s + 1:e + 1:2]
    stencil += h2 * bf[s:e:2]
    stencil *= 0.25 * omega
    _relax_color(uf, s, e, mask, omega, stencil)


def _sweep_color_axes_3d(
    uf: np.ndarray,
    bf: np.ndarray,
    n: int,
    coeffs: Sequence[float],
    h2: float,
    omega: float,
    parity: int,
) -> None:
    s, e, mask = _color_span((n, n, n), parity)
    c0, c1, c2 = coeffs
    nn = n * n
    gs = c0 * (uf[s - nn:e - nn:2] + uf[s + nn:e + nn:2])
    gs += c1 * (uf[s - n:e - n:2] + uf[s + n:e + n:2])
    gs += c2 * (uf[s - 1:e - 1:2] + uf[s + 1:e + 1:2])
    gs += h2 * bf[s:e:2]
    gs *= 1.0 / (2.0 * (c0 + c1 + c2))
    gs *= omega
    _relax_color(uf, s, e, mask, omega, gs)


def sor_redblack_axes3d(
    u: np.ndarray,
    b: np.ndarray,
    coeffs: Sequence[float],
    omega: float,
    sweeps: int = 1,
) -> np.ndarray:
    """Red-black SOR for the 3-D per-axis-coefficient 7-point stencil.

    The operator is ``(A u) = [sum_a c_a (2u - u_a- - u_a+)] / h**2``;
    with unit coefficients this is the standard 7-point Poisson sweep.
    """
    check_cube_grid(u, "u")
    if u.ndim != 3:
        raise ValueError(f"u must be 3-D, got ndim={u.ndim}")
    if b.shape != u.shape:
        raise ValueError(f"b shape {b.shape} != u shape {u.shape}")
    if len(coeffs) != 3:
        raise ValueError(f"need 3 coefficients, got {len(coeffs)}")
    if sweeps < 0:
        raise ValueError("sweeps must be >= 0")
    n = u.shape[0]
    h = mesh_width(n)
    h2 = h * h
    return _sweeps_in_place(
        u, sweeps, _sweep_color_axes_3d, b.reshape(-1), n, coeffs, h2, omega
    )


def sor_redblack(u: np.ndarray, b: np.ndarray, omega: float, sweeps: int = 1) -> np.ndarray:
    """Run ``sweeps`` red-black SOR sweeps on ``u`` in place and return it.

    One sweep = red phase then black phase; each phase reads only values of
    the opposite colour, so this matches the sequential red-black ordering
    exactly regardless of vectorization.  3-D grids use the 7-point
    Poisson stencil.
    """
    if u.ndim == 3:
        return sor_redblack_axes3d(u, b, (1.0, 1.0, 1.0), omega, sweeps)
    check_square_grid(u, "u")
    if b.shape != u.shape:
        raise ValueError(f"b shape {b.shape} != u shape {u.shape}")
    if sweeps < 0:
        raise ValueError("sweeps must be >= 0")
    n = u.shape[0]
    h = mesh_width(n)
    h2 = h * h
    return _sweeps_in_place(u, sweeps, _sweep_color, b.reshape(-1), n, h2, omega)


def sor_sweeps(u: np.ndarray, b: np.ndarray, omega: float, sweeps: int) -> np.ndarray:
    """Alias of :func:`sor_redblack` with a mandatory sweep count."""
    return sor_redblack(u, b, omega, sweeps)


def _sweep_color_stencil(
    uf: np.ndarray,
    bf: np.ndarray,
    weights: tuple[np.ndarray, ...],
    n: int,
    omega: float,
    parity: int,
) -> None:
    north, south, west, east, diag = weights
    s, e, mask = _color_span((n, n), parity)
    gs = north[s:e:2] * uf[s - n:e - n:2]
    gs += south[s:e:2] * uf[s + n:e + n:2]
    gs += west[s:e:2] * uf[s - 1:e - 1:2]
    gs += east[s:e:2] * uf[s + 1:e + 1:2]
    gs += bf[s:e:2]
    # Boundary lanes skip the divide: a boundary diagonal may be 0.
    np.divide(gs, diag[s:e:2], out=gs, where=mask)
    gs *= omega
    _relax_color(uf, s, e, mask, omega, gs)


def sor_redblack_stencil(
    u: np.ndarray,
    b: np.ndarray,
    north: np.ndarray,
    south: np.ndarray,
    west: np.ndarray,
    east: np.ndarray,
    diag: np.ndarray,
    omega: float,
    sweeps: int = 1,
) -> np.ndarray:
    """Red-black SOR sweeps for a variable-coefficient 5-point stencil.

    The operator is ``(A u)_ij = diag_ij u_ij - north_ij u_N - south_ij u_S
    - west_ij u_W - east_ij u_E``; the weight arrays are full-grid shaped
    (only interior entries reach ``u``).  With the constant Poisson weights
    this reduces to :func:`sor_redblack`'s update rule.
    """
    check_square_grid(u, "u")
    if b.shape != u.shape:
        raise ValueError(f"b shape {b.shape} != u shape {u.shape}")
    for arr, name in ((north, "north"), (south, "south"), (west, "west"),
                      (east, "east"), (diag, "diag")):
        if arr.shape != u.shape:
            raise ValueError(f"{name} shape {arr.shape} != u shape {u.shape}")
    if sweeps < 0:
        raise ValueError("sweeps must be >= 0")
    weights = tuple(w.reshape(-1) for w in (north, south, west, east, diag))
    return _sweeps_in_place(
        u, sweeps, _sweep_color_stencil, b.reshape(-1), weights, u.shape[0], omega
    )


def _sor_reference_3d(
    u: np.ndarray, b: np.ndarray, omega: float, sweeps: int
) -> np.ndarray:
    n = u.shape[0]
    h = mesh_width(n)
    h2 = h * h
    for _ in range(sweeps):
        for parity in (0, 1):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    for k in range(1, n - 1):
                        if (i + j + k) % 2 != parity:
                            continue
                        gs = (
                            u[i - 1, j, k] + u[i + 1, j, k]
                            + u[i, j - 1, k] + u[i, j + 1, k]
                            + u[i, j, k - 1] + u[i, j, k + 1]
                            + h2 * b[i, j, k]
                        ) / 6.0
                        u[i, j, k] = (1.0 - omega) * u[i, j, k] + omega * gs
    return u


def sor_redblack_reference(
    u: np.ndarray, b: np.ndarray, omega: float, sweeps: int = 1
) -> np.ndarray:
    """Scalar-loop red-black SOR (executable specification for the tests)."""
    if u.ndim == 3:
        check_cube_grid(u, "u")
        return _sor_reference_3d(u, b, omega, sweeps)
    check_square_grid(u, "u")
    n = u.shape[0]
    h = mesh_width(n)
    h2 = h * h
    for _ in range(sweeps):
        for parity in (0, 1):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    if (i + j) % 2 != parity:
                        continue
                    gs = 0.25 * (
                        u[i - 1, j] + u[i + 1, j] + u[i, j - 1] + u[i, j + 1] + h2 * b[i, j]
                    )
                    u[i, j] = (1.0 - omega) * u[i, j] + omega * gs
    return u
