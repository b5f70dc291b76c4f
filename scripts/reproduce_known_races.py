#!/usr/bin/env python3
"""Reproduce the four known scheduler races and print their counterexample
traces: the lost wakeup, the stale preemption decision, the running-task
re-dequeue gap, and the resume-without-Running gap.

Run from the repository root:

    python scripts/reproduce_known_races.py
"""

from __future__ import annotations

from schedcheck.explorer import Limits, explore
from schedcheck.model import KernelConfig, TaskKind

H = TaskKind.HEAVY
L = TaskKind.LIGHT

SCENARIOS = [
    (
        "lost wakeup: timer fires before the task reaches Waiting "
        "(wait fix off, 1 worker, plan H)",
        KernelConfig(
            worker_count=1,
            task_plan=(H,),
            fix_wait_need_sched=False,
            max_waits_per_task=1,
            max_preemptions_per_task=0,
        ),
    ),
    (
        "stale preemption: the IPI lands after the observed task left "
        "(preempt fix off, 2 workers, plan H,L)",
        KernelConfig(
            worker_count=2,
            task_plan=(H, L),
            fix_preempt_need_sched=False,
            max_waits_per_task=0,
            max_preemptions_per_task=1,
        ),
    ),
    (
        "running-task re-dequeue: enqueue-before-state window with the "
        "running check disabled",
        KernelConfig(
            worker_count=2,
            task_plan=(H,),
            fix_preempt_need_sched=False,
            max_waits_per_task=0,
            max_preemptions_per_task=1,
            faults=frozenset({"enqueue-before-state", "skip-running-check"}),
        ),
    ),
    (
        "resume without Running: the resume path skips the state update",
        KernelConfig(
            worker_count=2,
            task_plan=(H, L),
            max_waits_per_task=0,
            max_preemptions_per_task=1,
            faults=frozenset({"skip-resume-state"}),
        ),
    ),
]


def main() -> int:
    for title, config in SCENARIOS:
        print("=" * 72)
        print(title)
        print("=" * 72)
        report = explore(config, Limits(max_violations=64))
        print(
            f"states={report.states_visited} transitions={report.transitions_taken} "
            f"violations={len(report.violations)}"
        )
        trace = report.violations[0]
        print(f"first counterexample ({trace.verdict}):")
        for line in trace.lines():
            print(f"  {line}")
        if trace.monitor_error is not None:
            print(f"  {trace.monitor_error.describe()}")
        states = ", ".join(f"task {t}={s}" for t, s in trace.final_task_states)
        print(f"  final: {states}; queue={list(trace.final_queue)}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
