"""Benchmark harness: the experiments, their registry, and reporting."""

from .harness import ExperimentResult
from .reporting import banner, format_series, format_table
from .stats import clopper_pearson, rate_with_interval
from .ablations import (
    experiment_ablation_adaptive,
    experiment_ablation_delta,
    experiment_ablation_sequential,
)
from .experiments import (
    experiment_comparison,
    experiment_learning_curve,
    experiment_distributed,
    experiment_distributed_faulty,
    experiment_drift,
    experiment_engine,
    experiment_experience_warmstart,
    experiment_federation,
    experiment_figure1,
    experiment_figure2_pib,
    experiment_lemma1,
    experiment_naf,
    experiment_overload,
    experiment_pib1_filter,
    experiment_qsqn,
    experiment_serving,
    experiment_smith_vs_learned,
    experiment_theorem1,
    experiment_theorem2,
    experiment_theorem3,
    experiment_upsilon_scaling,
)
from .registry import EXPERIMENTS, Experiment

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "banner",
    "format_series",
    "format_table",
    "clopper_pearson",
    "rate_with_interval",
    "experiment_ablation_adaptive",
    "experiment_ablation_delta",
    "experiment_ablation_sequential",
    "experiment_comparison",
    "experiment_learning_curve",
    "experiment_distributed",
    "experiment_distributed_faulty",
    "experiment_drift",
    "experiment_engine",
    "experiment_experience_warmstart",
    "experiment_federation",
    "experiment_figure1",
    "experiment_figure2_pib",
    "experiment_lemma1",
    "experiment_naf",
    "experiment_overload",
    "experiment_pib1_filter",
    "experiment_qsqn",
    "experiment_serving",
    "experiment_smith_vs_learned",
    "experiment_theorem1",
    "experiment_theorem2",
    "experiment_theorem3",
    "experiment_upsilon_scaling",
]
