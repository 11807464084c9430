"""The autotuner vs fixed heuristic strategies (Figures 7 and 8).

Run:  python examples/heuristics.py

Trains the five fixed strategies (10^9 at every level; 10^x at lower
levels for x = 1, 3, 5, 7) plus the full autotuner on biased data for
three operator families, through the paper-figures driver, then prints
each strategy's priced seconds (Intel cost model) and measured seconds on
this host, with ratios against the autotuned algorithm.  The paper's
observation: the best heuristic changes with problem size, and the
autotuner beats them all because it tunes accuracy per level.  In priced
seconds it always does; measured here, it need not.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import paper_figures  # noqa: E402

from repro.util.validation import size_of_level  # noqa: E402

MAX_LEVEL = 6


def main() -> None:
    rows = paper_figures.fig7(max_level=MAX_LEVEL, reps=3)
    print(paper_figures.format_rows(rows))
    print("\nfastest heuristic per family and size (priced | measured):")
    groups: dict[tuple, dict[str, dict]] = {}
    for cell in paper_figures.cells(rows):
        if cell["algorithm"] != "Autotuned":
            groups.setdefault((cell["family"], cell["level"]), {})[cell["algorithm"]] = cell
    for (family, level), cells in groups.items():
        priced = min(cells, key=lambda name: cells[name]["priced_s"])
        measured = min(cells, key=lambda name: cells[name]["measured_s"])
        print(f"  {family} N={size_of_level(level)}: {priced} | {measured}")


if __name__ == "__main__":
    main()
