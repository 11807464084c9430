"""Experiment harness: drivers for every table and figure plus ablations.

See README, "Experiments", for the index mapping paper artifacts to
these drivers and to the pytest-benchmark files under ``benchmarks/``.
"""

from repro.bench.report import Series, format_ratio_table, format_series_table
from repro.bench.fitting import PowerLawFit, fit_power_law
from repro.bench.parallel import simulate_trace, trace_task_graph
from repro.bench.experiments import (
    cross_architecture,
    fig10_13_reference_comparison,
    fig14_architectures,
    fig4_call_stacks,
    fig5_cycle_shapes,
    fig6_algorithm_comparison,
    fig7_heuristics,
    fig9_parallel_scaling,
    table1_complexity,
    tune_pair,
)
from repro.bench.ablations import (
    ablation_accuracy_ladder,
    ablation_factor_caching,
    ablation_pareto_vs_discrete,
    ablation_smoother,
    ablation_training_distribution,
)

__all__ = [
    "PowerLawFit",
    "Series",
    "ablation_accuracy_ladder",
    "ablation_factor_caching",
    "ablation_pareto_vs_discrete",
    "ablation_smoother",
    "ablation_training_distribution",
    "cross_architecture",
    "fig10_13_reference_comparison",
    "fig14_architectures",
    "fig4_call_stacks",
    "fig5_cycle_shapes",
    "fig6_algorithm_comparison",
    "fig7_heuristics",
    "fig9_parallel_scaling",
    "fit_power_law",
    "format_ratio_table",
    "format_series_table",
    "simulate_trace",
    "table1_complexity",
    "trace_task_graph",
    "tune_pair",
]
