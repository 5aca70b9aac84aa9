"""The one ordered list of reproduction experiments.

Every experiment this repository runs is one :class:`Experiment` in
:data:`EXPERIMENTS`.  ``benchmarks/bench_experiments.py`` times each
entry under pytest-benchmark and asserts its checks;
``tools/bench_trajectory.py`` runs each entry and records its pinned
``data`` keys in ``BENCH_<n>.json``, where ``--check`` compares them
across PRs.  An experiment's signature defaults are its pinned
parameters, so the registry stores none: a parameter changes in one
place, and every consumer sees the change.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Tuple

from . import ablations, experiments as ex
from .harness import ExperimentResult

__all__ = ["Experiment", "EXPERIMENTS"]


class Experiment(NamedTuple):
    """One registered experiment."""

    #: The test id under pytest-benchmark and the leg name in
    #: ``BENCH_<n>.json``.
    name: str
    #: Runs the experiment at its pinned parameters.
    run: Callable[[], ExperimentResult]
    #: Deterministic ``data`` keys the trajectory records and
    #: ``--check`` compares; a change means the code changed behaviour.
    pinned: Tuple[str, ...] = ()


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("figure1", ex.experiment_figure1),
    Experiment("smith_vs_learned", ex.experiment_smith_vs_learned),
    Experiment("figure2_pib", ex.experiment_figure2_pib),
    Experiment("learning_curve", ex.experiment_learning_curve),
    Experiment("pib1_filter", ex.experiment_pib1_filter),
    Experiment("theorem1", ex.experiment_theorem1),
    Experiment("theorem2", ex.experiment_theorem2),
    # 1% of the Equation 7 budget: Theorem 2 is void there, and the run
    # shows how conservative the worst-case budgets are.
    Experiment(
        "theorem2_scaled",
        partial(ex.experiment_theorem2, seed=44, trials=30, sample_scale=0.01),
    ),
    Experiment("theorem3", ex.experiment_theorem3),
    Experiment("lemma1", ex.experiment_lemma1),
    Experiment("distributed", ex.experiment_distributed),
    Experiment("distributed_faulty", ex.experiment_distributed_faulty),
    Experiment("naf", ex.experiment_naf),
    Experiment(
        "drift", ex.experiment_drift,
        ("cost_vanilla", "cost_aware", "alarms", "epoch", "rollbacks"),
    ),
    Experiment("upsilon_scaling", ex.experiment_upsilon_scaling),
    Experiment("comparison", ex.experiment_comparison),
    Experiment("ablation_sequential", ablations.experiment_ablation_sequential),
    Experiment("ablation_adaptive", ablations.experiment_ablation_adaptive),
    Experiment("ablation_delta", ablations.experiment_ablation_delta),
    # Raw Datalog substrate: a prove-cost change, or a change in the
    # reductions, retrievals or enumeration cost behind it, means the
    # engine explores differently.
    Experiment(
        "engine", ex.experiment_engine,
        ("path_facts", "answers", "prove_cost", "prove_reductions",
         "prove_retrievals", "answers_cost"),
    ),
    # The three-way answer agreement, QSQN's billed prove cost and the
    # activations its drain runs.
    Experiment(
        "qsqn", ex.experiment_qsqn,
        ("answers", "qsqn_prove_cost", "qsqn_activations", "sg_pairs"),
    ),
    # Cross-backend parity (memory, SQLite, federated) and the seeded
    # faulty leg's partial/dark/hedge/billed telemetry.
    Experiment(
        "federation", ex.experiment_federation,
        ("answers", "prove_cost", "faulty_partials", "faulty_lost",
         "faulty_dark_probes", "faulty_hedged_reads", "faulty_billed"),
    ),
    # Wall-clock speedups over simulated probe latency: nothing
    # machine-independent to pin.
    Experiment("serving", ex.experiment_serving),
    Experiment(
        "overload", ex.experiment_overload,
        ("goodput", "served", "rejected", "offered",
         "stormy_p50", "stormy_p95", "stormy_p99",
         "unbounded_p99", "tail_ratio",
         "chaos_p99", "chaos_served", "chaos_faults_injected"),
    ),
    # The samples-to-convergence reduction and the priors-only parity
    # verdicts (a drift means warm-start started feeding the schedule).
    Experiment(
        "experience_warmstart", ex.experiment_experience_warmstart,
        ("mean_reduction", "reductions", "answer_parity",
         "strategy_parity"),
    ),
)
