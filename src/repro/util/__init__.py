"""Shared utilities: validation, seeding, timing, text tables.

These are deliberately dependency-light; every other subpackage may import
from here, but :mod:`repro.util` imports nothing from the rest of the
package.
"""

from repro.util.validation import (
    check_grid_size,
    check_square_grid,
    is_grid_size,
    level_of_size,
    size_of_level,
)
from repro.util.rng import derive_rng, spawn_seeds
from repro.util.table import format_table
from repro.util.timing import WallClock, median_time

__all__ = [
    "WallClock",
    "check_grid_size",
    "check_square_grid",
    "derive_rng",
    "format_table",
    "is_grid_size",
    "level_of_size",
    "median_time",
    "size_of_level",
    "spawn_seeds",
]
