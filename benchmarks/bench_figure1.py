"""Micro-benchmark behind F1: the exact expected-cost evaluation.

The F1 experiment itself (every number of the paper's ``G_A``
walk-through) runs from the registry in ``bench_experiments.py``; this
bench times the ``C[Θ₁] = 3.7`` evaluation that underlies it.
"""

from repro.strategies.expected_cost import expected_cost_exact
from repro.workloads import g_a, intended_probabilities, theta_1


def test_exact_expected_cost_microbench(benchmark):
    graph = g_a()
    strategy = theta_1(graph)
    probs = intended_probabilities()
    value = benchmark(expected_cost_exact, strategy, probs)
    assert value == 3.7
