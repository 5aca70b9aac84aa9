"""End-to-end session benchmark: one workload, one seed, one run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload learn_skewed --seed 1 \\
        --seconds 10 --trace 0

The program under test is the ``repro`` package in ``src/`` of that
checkout (there is nothing to build).  ``--seconds`` sets the run's
size: each workload sends ``reads_per_second × seconds`` reads (plus
its writes), about that many seconds of work where the benchmark was
calibrated, so every run of one seed does identical work.

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` the run is made twice, untraced
then traced, and the last line holds the per-layer metrics.  The lines
before it describe the traffic (and, traced, each layer's share of
read self time).  A wrong answer exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"error: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCE, ROOT]
    from perfbench.harness import run_workload
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", metavar="PATH",
        help="with --trace 1, also write every span as JSON lines to PATH",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spans_path=args.spans,
    )
    print(json.dumps({"traffic": result.traffic}, sort_keys=True))
    if result.shares:
        print(json.dumps({"read_self_share": result.shares}, sort_keys=True))
    if result.verdict.examples:
        print("wrong answers: " + "; ".join(result.verdict.examples),
              file=sys.stderr)
    print(json.dumps(result.line()))
    return 0 if result.verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
