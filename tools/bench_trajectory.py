#!/usr/bin/env python
"""The performance trajectory: one BENCH_<n>.json per PR, compared.

Each PR runs every experiment in :data:`repro.bench.EXPERIMENTS` and
commits the result as ``BENCH_<n>.json`` at the repo root.  Because
the registry pins each experiment's parameters (its signature defaults)
and the data keys worth comparing, the committed files form a trajectory:
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
from typing import Any, Dict, List, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.bench import EXPERIMENTS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_suite() -> Dict[str, Any]:
    experiments: Dict[str, Any] = {}
    for name, run, keys in EXPERIMENTS:
        start = time.perf_counter()
        result = run()
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
    committed snapshot (``leg.key: committed -> current``) and one per
    leg that only one side ran."""
    lines = [
        f"{name}: missing from the current run"
        for name in committed.get("experiments", {})
        if name not in experiments
    ]
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
