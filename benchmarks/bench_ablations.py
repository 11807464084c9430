"""Ablation benches for the knobs the paper fixed (README, "Experiments").

Not paper figures: these probe the knobs the paper fixed, quantifying how
much each one matters to the headline results.
"""


from repro.bench.ablations import (
    ablation_accuracy_ladder,
    ablation_factor_caching,
    ablation_pareto_vs_discrete,
    ablation_smoother,
    ablation_training_distribution,
)


def test_ablation_accuracy_ladder(benchmark, write_artifact):
    res = benchmark.pedantic(
        lambda: ablation_accuracy_ladder(max_level=6), rounds=1, iterations=1
    )
    write_artifact("ablation_accuracy_ladder", res.format())
    assert "m=5" in res.table


def test_ablation_training_distribution(benchmark, write_artifact):
    res = benchmark.pedantic(
        lambda: ablation_training_distribution(max_level=6),
        rounds=1,
        iterations=1,
    )
    write_artifact("ablation_training_distribution", res.format())
    # Every train/test pairing must be reported.
    assert res.table.count("unbiased") >= 4


def test_ablation_smoother(benchmark, write_artifact):
    res = benchmark.pedantic(
        lambda: ablation_smoother(level=6, target=1e3), rounds=1, iterations=1
    )
    write_artifact("ablation_smoother", res.format())
    # The paper's stated result: SOR needs fewer sweeps than Jacobi.
    lines = [l for l in res.table.splitlines() if "SOR" in l or "Jacobi" in l]
    sweeps = {line.split()[0]: int(line.split()[-2]) for line in lines}
    assert sweeps["SOR(w_opt)"] < sweeps["Jacobi(2/3)"]


def test_ablation_factor_caching(benchmark, write_artifact):
    res = benchmark.pedantic(
        lambda: ablation_factor_caching(max_level=6), rounds=1, iterations=1
    )
    write_artifact("ablation_factor_caching", res.format())


def test_ablation_pareto_vs_discrete(benchmark, write_artifact):
    res = benchmark.pedantic(
        lambda: ablation_pareto_vs_discrete(max_level=4), rounds=1, iterations=1
    )
    write_artifact("ablation_pareto_vs_discrete", res.format())
    assert "pareto" in res.table or "discrete" in res.title
