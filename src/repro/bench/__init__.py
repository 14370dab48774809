"""Benchmark harness regenerating the paper's tables and figures."""

from repro.bench.experiments import (
    FIGURES,
    MEMORY_FIGURES,
    ablation_single_group_shortcut,
    ablation_strategies,
    figure,
    figure_series,
    memory_limited_figure,
    miner_sweep,
    observations,
    run_experiment,
    table3,
    two_step_cold_start,
)
from repro.bench.report import format_table, render_report
from repro.bench.runner import (
    MiningRun,
    run_baseline,
    run_condensed,
    run_recycling,
    speedup,
    timed,
)
from repro.bench.workloads import Workload, prepare_workload

__all__ = [
    "FIGURES",
    "MEMORY_FIGURES",
    "MiningRun",
    "Workload",
    "ablation_single_group_shortcut",
    "ablation_strategies",
    "figure",
    "figure_series",
    "format_table",
    "memory_limited_figure",
    "miner_sweep",
    "observations",
    "prepare_workload",
    "render_report",
    "run_baseline",
    "run_condensed",
    "run_experiment",
    "run_recycling",
    "speedup",
    "table3",
    "timed",
    "two_step_cold_start",
]
