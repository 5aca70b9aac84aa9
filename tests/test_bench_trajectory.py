"""``tools/bench_trajectory.py --check`` names every drifted metric."""

import importlib.util
import json
import os
import sys

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "bench_trajectory.py",
)


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def leg(metrics):
    return {"all_passed": True, "checks": {}, "metrics": metrics,
            "wall_seconds": 0.5}


CURRENT = {
    "qsqn": leg({"answers": 47, "qsqn_prove_cost": 1206.0, "sg_pairs": 819}),
    "figure1": leg({}),
}


def test_drift_lists_each_changed_key_with_both_values(trajectory):
    committed = {"experiments": {
        "qsqn": leg({"answers": 47, "qsqn_prove_cost": 3224.0,
                     "sg_pairs": 819, "retired": 1}),
        "figure1": leg({}),
    }}
    assert trajectory.drift(committed, CURRENT) == [
        "qsqn.qsqn_prove_cost: 3224.0 -> 1206.0",
        "qsqn.retired: 1 -> missing",
    ]


def test_drift_reports_a_leg_missing_from_the_snapshot(trajectory):
    committed = {"experiments": {"qsqn": CURRENT["qsqn"]}}
    assert trajectory.drift(committed, CURRENT) == [
        "figure1: not in the committed snapshot",
    ]
    assert trajectory.drift({"experiments": CURRENT}, CURRENT) == []


def test_check_prints_the_drift_and_fails(trajectory, tmp_path,
                                          monkeypatch, capsys):
    doctored = {"label": 99, "experiments": {
        "qsqn": leg({"answers": 46, "qsqn_prove_cost": 1206.0,
                     "sg_pairs": 819}),
        "figure1": leg({}),
    }}
    (tmp_path / "BENCH_99.json").write_text(json.dumps(doctored))
    monkeypatch.setattr(trajectory, "ROOT", str(tmp_path))
    monkeypatch.setattr(trajectory, "run_suite", lambda: CURRENT)
    monkeypatch.setattr(sys, "argv",
                        ["bench_trajectory.py", "--label", "99", "--check"])
    assert trajectory.main() == 1
    out = capsys.readouterr().out
    assert "qsqn.answers: 46 -> 47" in out
    assert "qsqn_prove_cost" not in out
