"""Parallel scalability of the tuned solver (Figure 9).

Run:  python examples/parallel_scaling.py

Reads the tuned plan's operation trace off the plan, converts it into a
task graph (row-block data parallelism with colour barriers, serial direct
solves), and replays it on 1..8 virtual workers with the work-stealing
simulator.  Also runs a block-decomposed SOR sweep's task graph in
topological order and checks it against the serial sweep.
"""

import numpy as np

from repro.bench import fig9_parallel_scaling
from repro.relax.sor import sor_redblack
from repro.runtime import sweep_task_graph
from repro.workloads import make_problem

MAX_LEVEL = 7


def main() -> None:
    print("=== simulated speedup of the tuned algorithm (Intel model) ===\n")
    result = fig9_parallel_scaling(max_level=MAX_LEVEL, machine="intel")
    print(result.format())

    print("\n=== block-parallel SOR sweep task graph ===")
    problem = make_problem("unbiased", 65, seed=3)
    serial = problem.initial_guess()
    sor_redblack(serial, problem.b, 1.15, 1)
    parallel = problem.initial_guess()
    graph = sweep_task_graph(parallel, problem.b, omega=1.15, blocks=8)
    order = graph.topological_order()
    for task in order:
        task.run()
    err = float(np.abs(serial - parallel).max())
    print(f"executed {len(order)} tasks in dependency order; "
          f"max deviation from the serial sweep: {err:.2e}")


if __name__ == "__main__":
    main()
