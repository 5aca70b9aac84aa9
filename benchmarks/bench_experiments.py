"""Every registered reproduction experiment, timed once and gated.

One test per entry of :data:`repro.bench.EXPERIMENTS`, with the entry
name as its id: ``pytest benchmarks/ --benchmark-only -k theorem1``
runs one.  Each case runs the experiment at its pinned parameters,
queues its report for the terminal summary, and fails if any of its
paper-claim checks fails.
"""

import pytest

from conftest import record_report

from repro.bench import EXPERIMENTS


@pytest.mark.parametrize(
    "experiment", EXPERIMENTS, ids=[entry.name for entry in EXPERIMENTS]
)
def test_experiment(benchmark, experiment):
    result = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    record_report(result.report())
    assert result.all_passed, [
        description for description, passed in result.checks if not passed
    ]
