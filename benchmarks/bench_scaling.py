"""Experiment S1: PIB's per-query overhead (§5.1).

"Only maintaining [a few] counters and computing Equation 6", measured
as the marginal cost of monitoring versus plain execution.  The other
S1 claim, ``Υ_AOT`` runtime versus graph size, is the registered
``upsilon_scaling`` experiment in ``bench_experiments.py``.
"""

import random

from repro.graphs.random_graphs import random_instance
from repro.learning.pib import PIB
from repro.strategies.execution import execute
from repro.strategies.strategy import Strategy
from repro.workloads.distributions import IndependentDistribution


def _pib_setup():
    rng = random.Random(99)
    graph, probs = random_instance(rng, n_internal=4, n_retrievals=8)
    distribution = IndependentDistribution(graph, probs)
    contexts = [distribution.sample(rng) for _ in range(256)]
    return graph, contexts


def test_pib_per_query_overhead(benchmark):
    graph, contexts = _pib_setup()
    pib = PIB(graph, delta=0.05, test_every=1)
    index = iter(range(1_000_000))

    def step():
        pib.process(contexts[next(index) % len(contexts)])

    benchmark(step)


def test_plain_execution_baseline(benchmark):
    graph, contexts = _pib_setup()
    strategy = Strategy.depth_first(graph)
    index = iter(range(1_000_000))

    def step():
        execute(strategy, contexts[next(index) % len(contexts)])

    benchmark(step)
