"""The experiment registry covers every experiment and every pinned leg.

Nothing here runs an experiment: the checks read the registry, the
``repro.bench`` exports and the committed ``BENCH_14.json`` snapshot.
"""

import json
import os

import repro.bench as bench
from repro.bench import EXPERIMENTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_exported_experiment_is_registered():
    registered = {
        getattr(entry.run, "func", entry.run) for entry in EXPERIMENTS
    }
    exported = {
        name for name in bench.__all__ if name.startswith("experiment_")
    }
    assert exported
    assert {
        name for name in exported if getattr(bench, name) not in registered
    } == set()


def test_entry_names_are_unique():
    names = [entry.name for entry in EXPERIMENTS]
    assert len(names) == len(set(names))


def test_committed_legs_and_pinned_keys_are_registered():
    with open(os.path.join(ROOT, "BENCH_14.json")) as handle:
        committed = json.load(handle)["experiments"]
    pinned = {entry.name: set(entry.pinned) for entry in EXPERIMENTS}
    for leg, info in committed.items():
        assert leg in pinned, leg
        assert set(info["metrics"]) <= pinned[leg], leg
