"""Byte pins for the NumPy red-black SOR sweeps at every grid size.

``sor_digests.json`` holds the SHA-256 of each operator's ``sor_sweeps``
output after 1 and after 3 sweeps, for 2-D levels 1-7 and 3-D levels
1-5.  The kernel GOLDEN hashes in ``tests/kernels`` cover one size per
dimensionality; these cover the small grids (n = 3, 5) where a colour's
index arithmetic has its edge cases.  Like those goldens they assume the
linux/x86-64 float64 toolchain CI uses.

The other tests pin what the digests cannot: the boundary ring keeps its
bytes, a zero boundary diagonal raises no floating-point error, and
non-contiguous ``u`` arrays sweep to the same bytes in place.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.operators.spec import shared_operator
from repro.relax.sor import (
    sor_redblack,
    sor_redblack_axes3d,
    sor_redblack_stencil,
)
from repro.util.validation import size_of_level

DIGESTS = json.loads((Path(__file__).with_name("sor_digests.json")).read_text())

CASES = [
    (spec, level)
    for specs, levels in (
        (("poisson", "anisotropic", "varcoeff"), range(1, 8)),
        (("poisson3d", "anisotropic3d"), range(1, 6)),
    )
    for spec in specs
    for level in levels
]
SWEEPS = (1, 3)


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _inputs(op, level: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1000 * op.ndim + level)
    shape = (op.n,) * op.ndim
    return rng.uniform(-1.0, 1.0, size=shape), rng.uniform(-1.0, 1.0, size=shape)


def _key(spec: str, level: int, sweeps: int) -> str:
    return f"{spec}/L{level}/sweeps{sweeps}"


def _swept(spec: str, level: int, sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    op = shared_operator(spec, size_of_level(level))
    u0, b = _inputs(op, level)
    u = u0.copy()
    op.sor_sweeps(u, b, op.omega_opt(), sweeps)
    return u0, u


def compute_digests() -> dict[str, str]:
    """Every pinned digest, recomputed from the current kernels."""
    return {
        _key(spec, level, sweeps): _sha(_swept(spec, level, sweeps)[1])
        for spec, level in CASES
        for sweeps in SWEEPS
    }


def test_digest_table_covers_every_case():
    assert sorted(DIGESTS) == sorted(
        _key(spec, level, sweeps) for spec, level in CASES for sweeps in SWEEPS
    )


@pytest.mark.parametrize("sweeps", SWEEPS)
@pytest.mark.parametrize("spec,level", CASES)
def test_sweep_bytes_match_digest(spec, level, sweeps):
    _, u = _swept(spec, level, sweeps)
    assert _sha(u) == DIGESTS[_key(spec, level, sweeps)]


def _ring(u: np.ndarray) -> np.ndarray:
    mask = np.ones(u.shape, dtype=bool)
    mask[(slice(1, -1),) * u.ndim] = False
    return u[mask]


@pytest.mark.parametrize("spec,level", [c for c in CASES if c[1] <= 4])
def test_boundary_ring_keeps_its_bytes(spec, level):
    u0, u = _swept(spec, level, 3)
    assert _ring(u).tobytes() == _ring(u0).tobytes()


def _stencil_weights(n: int, rng) -> list[np.ndarray]:
    """North/south/west/east/diag weights whose boundary diagonal is 0."""
    weights = [rng.uniform(0.5, 1.0, size=(n, n)) for _ in range(4)]
    diag = np.zeros((n, n))
    diag[1:-1, 1:-1] = sum(w[1:-1, 1:-1] for w in weights)
    return weights + [diag]


@pytest.mark.parametrize("n", [3, 5, 9, 17])
def test_zero_boundary_diagonal_raises_nothing(n):
    rng = np.random.default_rng(n)
    u = rng.uniform(-1.0, 1.0, size=(n, n))
    b = rng.uniform(-1.0, 1.0, size=(n, n))
    u3 = rng.uniform(-1.0, 1.0, size=(n, n, n))
    b3 = rng.uniform(-1.0, 1.0, size=(n, n, n))
    with np.errstate(all="raise"):
        sor_redblack_stencil(u, b, *_stencil_weights(n, rng), 1.3, 3)
        sor_redblack(u, b, 1.3, 3)
        sor_redblack_axes3d(u3, b3, (0.1, 1.0, 1.0), 1.3, 3)
    assert np.isfinite(u).all() and np.isfinite(u3).all()


def _layouts(u0: np.ndarray):
    """The same values as a Fortran-ordered array and a strided view."""
    yield "fortran", np.asfortranarray(u0)
    parent = np.full(tuple(2 * s for s in u0.shape), np.nan)
    view = parent[(slice(None, None, 2),) * u0.ndim]
    view[...] = u0
    yield "strided", view


def _sweepers(n: int):
    rng = np.random.default_rng(7 * n)
    b2 = rng.uniform(-1.0, 1.0, size=(n, n))
    b3 = rng.uniform(-1.0, 1.0, size=(n, n, n))
    weights = _stencil_weights(n, rng)
    yield "const", 2, lambda u: sor_redblack(u, b2, 1.3, 3)
    yield "stencil", 2, lambda u: sor_redblack_stencil(u, b2, *weights, 1.3, 3)
    yield "axes3d", 3, lambda u: sor_redblack_axes3d(u, b3, (0.1, 1.0, 1.0), 1.3, 3)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_non_contiguous_u_sweeps_to_the_same_bytes(n):
    rng = np.random.default_rng(n)
    for name, ndim, sweep in _sweepers(n):
        u0 = rng.uniform(-1.0, 1.0, size=(n,) * ndim)
        expected = u0.copy()
        sweep(expected)
        for layout, u in _layouts(u0):
            assert sweep(u) is u, (name, layout)
            assert _sha(u) == _sha(expected), (name, layout)
