"""Tuned cycle shapes across accuracy targets and machines (Figures 5/14).

Run:  python examples/cycle_shapes.py

Renders, through the paper-figures driver, the V-type and
full-multigrid cycles the autotuner produces for the AMD Barcelona cost
model at two accuracy targets, then compares the full-MG cycle across
the three testbed architectures — the paper's evidence that optimal
cycle shape is machine-dependent.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import paper_figures  # noqa: E402

MAX_LEVEL = 6


def main() -> None:
    print("=== Figure 5: tuned cycles on AMD Barcelona (unbiased & biased) ===\n")
    print(paper_figures.sections(paper_figures.fig5(MAX_LEVEL, targets=(1e1, 1e5))))

    print("\n\n=== Figure 14: tuned full-MG cycles across architectures ===\n")
    arch = paper_figures.fig14(MAX_LEVEL)
    print(paper_figures.sections(arch))

    print("\nshape counts (per machine):")
    for name, cycle in arch.items():
        print(
            f"  {name}: direct call at level {cycle['direct_level']}, "
            f"{cycle['relaxations']} relaxations, {cycle['sor_segments']} SOR segments"
        )


if __name__ == "__main__":
    main()
