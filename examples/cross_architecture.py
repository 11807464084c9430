"""Portability study: what tuning on the wrong machine costs (section 4.3).

Run:  python examples/cross_architecture.py

Tunes full-multigrid plans natively for the Intel Xeon and Sun Niagara
cost models, then prices each plan on the other machine and measures
both on this host, through the paper-figures driver.  The paper measured
a 29% slowdown for the Niagara-trained cycle on the Xeon and 79% for the
Xeon-trained cycle on the Niagara — the motivation for portable
autotuning.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import paper_figures  # noqa: E402

from repro.machines import get_preset  # noqa: E402
from repro.tuner.spec import tune_pair  # noqa: E402

MAX_LEVEL = 6
TARGET = 1e5


def main() -> None:
    rows = paper_figures.cross_arch(MAX_LEVEL, reps=3)
    print(paper_figures.format_rows(rows))
    for trained, run, pct in paper_figures.cross_penalties(rows):
        print(f"{trained}-tuned plan priced on {run}: {pct:+.1f}% against native tuning")
    print("paper reference points: sun->intel +29%, intel->sun +79% "
          "(N=2049 testbeds; ours is a scaled cost-model analogue)\n")

    print("why the plans differ — tuned call stacks at the target accuracy:")
    for name in ("intel", "sun"):
        profile = get_preset(name)
        _, fplan = tune_pair(MAX_LEVEL, profile, "unbiased", seed=0)
        print(f"\n[{profile.name}]")
        print(paper_figures.render_call_stack(fplan, MAX_LEVEL, fplan.accuracy_index(TARGET)))


if __name__ == "__main__":
    main()
