"""Benchmark harness: experiment registry regenerating every paper figure."""

from typing import Any, Callable

from . import ablations, experiments, mixed
from .harness import (
    BenchScale,
    Measurement,
    RepeatedMeasurement,
    build_index,
    measure,
    repeat_measure,
)

#: Experiment name -> runner. ``python -m repro.bench <name>`` dispatches
#: here; ``benchmarks/`` files call the same functions under pytest.
EXPERIMENTS: dict[str, Callable[..., Any]] = {
    "fig1b": experiments.run_fig1b,
    "fig8": experiments.run_fig8,
    "fig9": experiments.run_fig9,
    "fig10": experiments.run_fig10,
    "fig11": mixed.run_fig11,
    "fig12": mixed.run_fig12,
    "fig13": mixed.run_fig13,
    "fig14": mixed.run_fig14,
    "fig15": mixed.run_fig15,
    "table1": experiments.run_table1,
    "table3": experiments.run_table3,
    "table5": experiments.run_table5,
    "ablation-tau": ablations.run_ablation_tau,
    "ablation-alpha": ablations.run_ablation_alpha,
    "ablation-critic": ablations.run_ablation_critic,
    "ablation-locks": ablations.run_ablation_locks,
    "ycsb": ablations.run_ycsb,
    "range-scans": ablations.run_range_scans,
}

__all__ = [
    "BenchScale",
    "Measurement",
    "build_index",
    "measure",
    "repeat_measure",
    "RepeatedMeasurement",
    "EXPERIMENTS",
]
