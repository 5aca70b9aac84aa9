#!/usr/bin/env python
"""The performance trajectory: one BENCH_<n>.json per PR, compared.

Each PR that touches a performance-relevant layer runs a small fixed
suite of deterministic experiments and commits the result as
``BENCH_<n>.json`` at the repo root.  Because the suite and its
parameters are pinned here, the committed files form a trajectory:
``make bench-trajectory`` re-runs the suite, writes the current file,
and prints every committed snapshot side by side so a regression in
goodput, tail latency, or wall time is one table away.

Metrics come in two kinds, kept separate in the JSON:

* ``metrics`` — deterministic model-level numbers (virtual-cost
  percentiles, goodput, served counts).  These must be *identical*
  across machines; a change means the code changed behaviour.
* ``wall_seconds`` — host-dependent timings, useful as a trend on one
  machine, meaningless across machines.

Usage::

    PYTHONPATH=src python tools/bench_trajectory.py --label 6
    PYTHONPATH=src python tools/bench_trajectory.py --label 6 --check
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.bench import (  # noqa: E402
    experiment_distributed,
    experiment_drift,
    experiment_engine,
    experiment_experience_warmstart,
    experiment_federation,
    experiment_figure1,
    experiment_overload,
    experiment_qsqn,
    experiment_serving,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _suite() -> List[Tuple[str, Callable, List[str]]]:
    """(name, thunk, data keys to record) — pinned parameters only."""
    return [
        ("figure1", experiment_figure1, []),
        (
            # Raw Datalog substrate speed: repeated proves, answer
            # enumeration, both fixpoints.  The deterministic metrics
            # pin search behaviour (a prove-cost change, or a change in
            # the reductions, retrievals or enumeration cost behind it,
            # means the engine explores differently); wall_seconds is
            # the hot-path speed trend.
            "engine",
            lambda: experiment_engine(nodes=60, proves=200),
            [
                "path_facts", "answers", "prove_cost", "prove_reductions",
                "prove_retrievals", "answers_cost",
            ],
        ),
        (
            # Goal-directed set-at-a-time evaluation vs. both
            # baselines: the deterministic metrics pin the three-way
            # answer agreement, QSQN's billed prove cost and the
            # activations its drain runs; wall_seconds is the
            # net-evaluation speed trend.
            "qsqn",
            lambda: experiment_qsqn(nodes=48, proves=100),
            ["answers", "qsqn_prove_cost", "qsqn_activations", "sg_pairs"],
        ),
        ("distributed", experiment_distributed, []),
        (
            # Wall-clock speedup checks: wall_seconds is the trend
            # here; no machine-independent metrics to pin.
            "serving",
            lambda: experiment_serving(
                forms=4, queries_per_form=10, latency=0.001,
            ),
            [],
        ),
        (
            "drift",
            experiment_drift,
            ["cost_vanilla", "cost_aware", "alarms", "epoch", "rollbacks"],
        ),
        (
            # Storage backends head-to-head: the deterministic metrics
            # pin cross-backend parity (answers/prove cost must never
            # drift between memory, SQLite, and federated) and the
            # seeded faulty leg's partial/dark/hedge/billed telemetry;
            # wall_seconds is each backend's speed trend.
            "federation",
            lambda: experiment_federation(nodes=48, queries=120),
            [
                "answers", "prove_cost", "faulty_partials", "faulty_lost",
                "faulty_dark_probes", "faulty_hedged_reads", "faulty_billed",
            ],
        ),
        (
            # Cross-session warm-start on the repeated university form:
            # the deterministic metrics pin the samples-to-convergence
            # reduction and the priors-only parity verdicts (any drift
            # means warm-start started feeding the schedule).
            "experience_warmstart",
            experiment_experience_warmstart,
            [
                "mean_reduction", "reductions", "answer_parity",
                "strategy_parity",
            ],
        ),
        (
            "overload",
            lambda: experiment_overload(
                forms=4, queries_per_form=12, burst=10,
                queue_capacity=8, tenants=3,
            ),
            [
                "goodput", "served", "rejected", "offered",
                "stormy_p50", "stormy_p95", "stormy_p99",
                "unbounded_p99", "tail_ratio",
                "chaos_p99", "chaos_served", "chaos_faults_injected",
            ],
        ),
    ]


def run_suite() -> Dict[str, Any]:
    experiments: Dict[str, Any] = {}
    for name, thunk, keys in _suite():
        start = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - start
        experiments[name] = {
            "all_passed": result.all_passed,
            "checks": {
                description: passed for description, passed in result.checks
            },
            "metrics": {key: result.data[key] for key in keys},
            "wall_seconds": round(elapsed, 4),
        }
    return experiments


def drift(
    committed: Dict[str, Any], experiments: Dict[str, Any]
) -> List[str]:
    """One line per deterministic metric that differs from the
    committed snapshot: ``leg.key: committed -> current``."""
    lines = []
    for name, info in experiments.items():
        recorded = committed.get("experiments", {}).get(name)
        if recorded is None:
            lines.append(f"{name}: not in the committed snapshot")
            continue
        before, after = recorded.get("metrics", {}), info["metrics"]
        for key in sorted(set(before) | set(after)):
            old, new = before.get(key, "missing"), after.get(key, "missing")
            if old != new:
                lines.append(f"{name}.{key}: {old} -> {new}")
    return lines


def load_trajectory() -> List[Tuple[int, Dict[str, Any]]]:
    """Every committed BENCH_<n>.json, ordered by PR number."""
    snapshots: List[Tuple[int, Dict[str, Any]]] = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if not match:
            continue
        with open(path) as handle:
            snapshots.append((int(match.group(1)), json.load(handle)))
    return sorted(snapshots)


def print_trajectory(snapshots: List[Tuple[int, Dict[str, Any]]]) -> None:
    if not snapshots:
        print("no committed BENCH_*.json snapshots yet")
        return
    names = sorted({
        name
        for _, snapshot in snapshots
        for name in snapshot.get("experiments", {})
    })
    print("\nperformance trajectory (wall seconds, this machine only):")
    header = ["experiment"] + [f"PR {label}" for label, _ in snapshots]
    rows = []
    for name in names:
        row = [name]
        for _, snapshot in snapshots:
            info = snapshot.get("experiments", {}).get(name)
            row.append(
                f"{info['wall_seconds']:.3f}"
                + ("" if info.get("all_passed") else " FAIL")
                if info else "-"
            )
        rows.append(row)
    widths = [
        max(len(str(line[col])) for line in [header] + rows)
        for col in range(len(header))
    ]
    for line in [header] + rows:
        print("  " + "  ".join(
            str(cell).ljust(width) for cell, width in zip(line, widths)
        ))
    latest = snapshots[-1][1].get("experiments", {}).get("overload")
    if latest:
        metrics = latest["metrics"]
        print(
            f"\nlatest overload metrics: goodput {metrics['goodput']:.1%}, "
            f"p99 {metrics['stormy_p99']:g} vs unbounded "
            f"{metrics['unbounded_p99']:g} "
            f"(tail ratio {metrics['tail_ratio']:.1f}x)"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", type=int, required=True,
        help="PR number; output goes to BENCH_<label>.json",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare deterministic metrics against the committed "
             "BENCH_<label>.json instead of rewriting it",
    )
    args = parser.parse_args()
    out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")

    experiments = run_suite()
    failed = [
        name for name, info in experiments.items() if not info["all_passed"]
    ]
    snapshot = {"label": args.label, "experiments": experiments}

    if args.check:
        if not os.path.exists(out_path):
            print(f"no committed {os.path.basename(out_path)} to check")
            return 1
        with open(out_path) as handle:
            committed = json.load(handle)
        mismatches = drift(committed, experiments)
        if mismatches:
            print("deterministic metrics drifted (committed -> current):")
            for line in mismatches:
                print(f"  {line}")
            return 1
        print("deterministic metrics match the committed snapshot")
    else:
        with open(out_path, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.basename(out_path)}")

    print_trajectory(load_trajectory())
    if failed:
        print(f"\nFAILED experiments: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
