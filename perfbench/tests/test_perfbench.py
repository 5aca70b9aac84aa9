"""Tests of the session benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.system import SelfOptimizingQueryProcessor  # noqa: E402

from perfbench import harness, speed  # noqa: E402
from perfbench.tracing import COUNTERS, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: A run size small enough for a unit test on every workload.
SECONDS = {
    "learn_skewed": 0.03,
    "recursive_sld": 0.05,
    "recursive_qsqn_writes": 0.3,
    "learn_federated_faults": 0.03,
}
SCALE = 0.03

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


@pytest.fixture(autouse=True)
def one_setup_is_enough(monkeypatch):
    """Tiny runs keep to the minimum number of set-ups."""
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)


def tiny(name: str, trace: bool = False, seed: int = 7):
    return harness.run_workload(name, seed, SECONDS[name], trace, scale=SCALE)


def test_benchmark_json_names_every_workload_and_metric():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in PER_LAYER]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == dict(PER_LAYER)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_tiny_and_is_correct(name):
    result = tiny(name)
    assert result.verdict.correct
    assert result.verdict.failed == 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result.metrics.items()} == units
    for metric in result.metrics.values():
        assert metric["value"] > 0
    line = result.line()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == result.traffic["reads"] + result.traffic["writes"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result = tiny(name, trace=True)
    assert result.verdict.correct
    assert [n for n in result.metrics] == [n for n, _ in PER_LAYER]
    assert result.metrics["storage.probes_per_read"]["value"] > 0
    assert abs(sum(result.shares.values()) - 1.0) < 1e-9


def test_layers_do_work_where_the_workload_says():
    skewed = tiny("learn_skewed", trace=True).metrics
    sld = tiny("recursive_sld", trace=True).metrics
    qsqn = tiny("recursive_qsqn_writes", trace=True).metrics
    federated = tiny("learn_federated_faults", trace=True).metrics

    def value(metrics, name):
        return metrics[name]["value"]

    assert value(skewed, "system.learned_share") == 1.0
    assert value(skewed, "learning.eq6_tests") > 0
    assert value(sld, "system.learned_share") == 0.0
    assert value(sld, "datalog.reductions_per_read") > 0
    assert value(sld, "datalog.qsqn.prove_self_ms_per_read") == 0.0
    assert value(qsqn, "datalog.qsqn.prove_self_ms_per_read") > 0
    assert value(qsqn, "storage.write_self_ms") > 0
    assert value(federated, "storage.federation.hedged_reads_per_read") > 0
    assert value(skewed, "storage.federation.hedged_reads_per_read") == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_counts_repeat_between_runs(name):
    first, second = tiny(name, trace=True), tiny(name, trace=True)
    for counter in COUNTERS:
        assert first.metrics[counter] == second.metrics[counter], counter
    plain_first, plain_second = tiny(name), tiny(name)
    for metric in ("billed_cost_per_read", "ok_frac"):
        assert plain_first.metrics[metric] == plain_second.metrics[metric]


def test_speedometer_rescales_by_the_samples_around_each_moment():
    meter = speed.Speedometer()
    reference = speed.REFERENCE_KERNEL_S
    meter.at = [float(k) for k in range(2 * speed.BLOCK)]
    meter.took = (
        [2 * reference] * (speed.BLOCK + 1) + [reference] * (speed.BLOCK - 1)
    )
    first, second = meter.factors([0.5, speed.BLOCK + 0.5])
    assert first == pytest.approx(0.5)
    assert second == pytest.approx(speed.BLOCK / (speed.BLOCK + 1))


def test_every_operation_gets_a_rescaling_factor():
    import random

    workload = WORKLOADS["recursive_qsqn_writes"]
    inputs = workload.generate(random.Random(3), 40, SCALE)
    prepared = harness.prepare(inputs)
    _, setups, run = harness.measure(workload, inputs, prepared, 3)
    assert len(run.factor) == len(prepared.ops)
    assert len(run.write_factor) == prepared.writes > 0
    assert all(f > 0 for f in run.factor + run.write_factor + setups)


def test_seed_changes_the_inputs():
    workload = WORKLOADS["learn_skewed"]
    import random

    one = workload.generate(random.Random(1), 50, SCALE)
    two = workload.generate(random.Random(2), 50, SCALE)
    again = workload.generate(random.Random(1), 50, SCALE)
    assert one.facts == again.facts and one.ops == again.ops
    assert one.facts != two.facts


@pytest.fixture
def flipped_proved(monkeypatch):
    """Every processor answer comes back with its ``proved`` flipped."""
    original = SelfOptimizingQueryProcessor.query

    def flipped(self, query, database):
        answer = original(self, query, database)
        return dataclasses.replace(answer, proved=not answer.proved)

    monkeypatch.setattr(SelfOptimizingQueryProcessor, "query", flipped)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_catches_a_flipped_proved_flag(name, flipped_proved):
    result = tiny(name)
    assert not result.verdict.correct
    assert result.verdict.wrong > 0
    assert not result.line()["correct"]


def test_run_exits_nonzero_on_a_wrong_answer(flipped_proved, capsys):
    from perfbench import run

    status = run.main([
        "--workload", "recursive_sld", "--seed", "3", "--seconds", "0.002",
    ])
    assert status == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn_skewed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


@pytest.mark.xfail(
    strict=True,
    reason="the subgoal memo stores a probe of a dark shard as 'no match' "
    "and serves it later inside a complete answer",
)
def test_federated_faults_with_the_subgoal_memo_answers_correctly(monkeypatch):
    workload = dataclasses.replace(
        WORKLOADS["learn_federated_faults"], subgoal_memo=True
    )
    monkeypatch.setitem(WORKLOADS, workload.name, workload)
    wrong = sum(
        harness.run_workload(workload.name, seed, 1.0, False, scale=0.05)
        .verdict.wrong
        for seed in (1, 2, 3)
    )
    assert wrong == 0
