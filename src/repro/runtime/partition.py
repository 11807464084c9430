"""Block decomposition of grid operations into task graphs.

A red-black sweep parallelizes as: all red-block tasks, a barrier, all
black-block tasks.  Row-block partitioning keeps each task's working set
contiguous (cache-friendly, matching the data-parallel rules PetaBricks
generates for stencil transforms).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.machines.profile import MachineProfile
from repro.runtime.task import TaskGraph
from repro.grids.grid import mesh_width

__all__ = ["partition_rows", "sweep_task_graph"]


def partition_rows(n: int, blocks: int) -> list[tuple[int, int]]:
    """Split interior rows [1, n-1) into ``blocks`` contiguous spans.

    Returns (start, stop) row-index pairs; fewer spans come back when there
    are fewer interior rows than requested blocks.
    """
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    interior = n - 2
    blocks = min(blocks, interior)
    bounds = np.linspace(1, n - 1, blocks + 1).astype(int)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(blocks)
        if bounds[i + 1] > bounds[i]
    ]


def _color_slices(n: int, parity: int):
    """Yield (first row, cols, west, east) per row parity of the colour
    (i + j) % 2 == parity: rows first, first + 2, ... hold its points in
    columns ``cols``."""
    for istart in (1, 2):
        # Pick jstart in {1, 2} so that (istart + jstart) % 2 == parity.
        jstart = 1 + ((istart + 1 + parity) % 2)
        if istart > n - 2 or jstart > n - 2:
            continue
        cols = slice(jstart, n - 1, 2)
        west = slice(jstart - 1, n - 2, 2)
        east = slice(jstart + 1, n, 2)
        yield istart, cols, west, east


def _sweep_block(
    u: np.ndarray, b: np.ndarray, omega: float, parity: int, rows: tuple[int, int]
) -> None:
    """One colour phase of red-black SOR restricted to a row block.

    Operates on a row-slab view widened by one halo row on each side so the
    stencil sees its neighbours; only rows inside the block are written.
    """
    n = u.shape[0]
    h = mesh_width(n)
    h2 = h * h
    lo, hi = rows
    quarter_omega = 0.25 * omega
    for istart, cols, west, east in _color_slices(n, parity):
        # Clip this colour's rows to [lo, hi): they keep istart's parity.
        first = lo + (istart - lo) % 2
        last = min(n - 1, hi)
        if first >= last:
            continue
        rsel = slice(first, last, 2)
        nsel = slice(first - 1, last - 1, 2)
        ssel = slice(first + 1, last + 1, 2)
        c = u[rsel, cols]
        stencil = u[nsel, cols] + u[ssel, cols]
        stencil += u[rsel, west]
        stencil += u[rsel, east]
        stencil += h2 * b[rsel, cols]
        c *= 1.0 - omega
        c += quarter_omega * stencil


def sweep_task_graph(
    u: np.ndarray,
    b: np.ndarray,
    omega: float,
    blocks: int,
    profile: MachineProfile | None = None,
    graph: TaskGraph | None = None,
    prefix: str = "sweep",
    deps: Sequence[str] = (),
) -> TaskGraph:
    """Task graph for one red-black SOR sweep split into row blocks.

    Red-phase tasks are independent; every black-phase task depends on all
    red tasks (the colour barrier).  When ``profile`` is given, each task
    carries its simulated cost (a 1/blocks share of the sweep's serial
    stencil time, minus the per-op overhead which the scheduler models
    separately).
    """
    n = u.shape[0]
    graph = graph or TaskGraph()
    spans = partition_rows(n, blocks)
    if profile is not None:
        serial = profile.stencil_time("relax", n, threads=1) - profile.op_overhead
        cost = max(serial, 0.0) / (2 * len(spans))
    else:
        cost = 0.0
    red_names = []
    for i, span in enumerate(spans):
        name = f"{prefix}-red-{i}"
        graph.add(
            name,
            fn=_make_block_fn(u, b, omega, 0, span),
            deps=deps,
            cost=cost,
        )
        red_names.append(name)
    for i, span in enumerate(spans):
        graph.add(
            f"{prefix}-black-{i}",
            fn=_make_block_fn(u, b, omega, 1, span),
            deps=red_names,
            cost=cost,
        )
    return graph


def _make_block_fn(u, b, omega, parity, span) -> Callable[[], None]:
    def fn() -> None:
        _sweep_block(u, b, omega, parity, span)

    return fn
