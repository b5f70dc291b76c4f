#!/usr/bin/env python3
"""Tabulate state-space sizes across workload bounds.

Shows how the wait and preemption bounds drive the reachable graph. The
counts are `explore`'s: states up to a renaming of same-kind tasks and
of worker cores, each checked against the structural invariants. Each
configuration must stay clean; one that does not is named on stderr and the script exits 1.
Useful when picking bounds small enough to explore exhaustively but large
enough to express a bug.

    python scripts/state_space_table.py [--plan H,L,L] [--workers 2]
"""

from __future__ import annotations

import argparse
import sys
import time

from schedcheck.cli import parse_task_plan
from schedcheck.explorer import explore
from schedcheck.model import KernelConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", default="H,L,L")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-bound", type=int, default=2)
    args = parser.parse_args()

    plan = parse_task_plan(args.plan)
    print(f"plan={args.plan} workers={args.workers}")
    print(f"{'waits':>5} {'preempts':>8} {'states':>9} {'transitions':>12} "
          f"{'depth':>6} {'seconds':>8}")
    for waits in range(args.max_bound + 1):
        for preemptions in range(args.max_bound + 1):
            config = KernelConfig(
                worker_count=args.workers,
                task_plan=plan,
                max_waits_per_task=waits,
                max_preemptions_per_task=preemptions,
            )
            start = time.monotonic()
            report = explore(config)
            elapsed = time.monotonic() - start
            if report.violations:
                print(f"waits={waits} preemptions={preemptions}: clean configuration "
                      f"found {report.violations[0].verdict}", file=sys.stderr)
                return 1
            print(
                f"{waits:>5} {preemptions:>8} {report.states_visited:>9} "
                f"{report.transitions_taken:>12} {report.max_depth:>6} "
                f"{elapsed:>8.2f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
