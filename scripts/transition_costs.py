#!/usr/bin/env python3
"""Mean cost of one `explore` transition, part by part, in microseconds.

Warms one search of a config (by default the CLI's: H,L,L on 2 workers, 1
wait and 1 preemption per heavy task, both fixes on) with a spy on
`explorer._settler` that keeps each state the search settles, its
violation, the number the search passed with it and its enabled steps. Then it times each part of a transition
over those inputs, with the plan's memos warm, best of `--repeat`:

- `_transition`: the successor's bytes, from the step's trie, over every
  (settled state, enabled step). `explore`'s loop walks the tries itself
  and does not call it; this is the same walk behind a call;
- `symmetric_key`: the key of every successor;
- settle: the settle closure (`_settler`) over every settled state, with
  its number, as the search calls it.

`sum` is the sum of the three; `explore` is the search itself, end to
end, with warm memos, and `cold` the same after `release_plan_memos()`,
which runs outside the timer. Every figure so far is divided by the
search's transitions. `misses` is what the cold search pays on a memo
miss, best of `--repeat` cold searches: its learns (`_learn`) and its
settle misses (calls of the settle closure that add an answer to the
memo), each counted and in microseconds per miss.

    python scripts/transition_costs.py [--plan H,L,L] [--workers 2] [--repeat 7]
"""

from __future__ import annotations

import argparse
import time

from schedcheck import explorer
from schedcheck.cli import parse_task_plan
from schedcheck.explorer import (
    Limits, _plan_memos, _transition, explore, release_plan_memos,
)
from schedcheck.model import FAULTS, KernelConfig, layout_for, symmetric_key


def best(repeat: int, part, before=None) -> float:
    """The least time of `repeat` calls of `part`, each after an untimed
    call of `before`, in seconds."""
    times = []
    for _ in range(repeat):
        if before is not None:
            before()
        start = time.perf_counter()
        part()
        times.append(time.perf_counter() - start)
    return min(times)


def cold_misses(config: KernelConfig, limits: Limits, repeat: int) -> tuple:
    """((learns, seconds per learn), (settle misses, seconds per miss)) of a
    search from empty memos, the least per-miss times of `repeat` searches."""
    learn, settler = explorer._learn, explorer._settler
    spent: dict = {}

    def timed_learn(*args):
        start = time.perf_counter()
        leaf = learn(*args)
        spent["learn"].append(time.perf_counter() - start)
        return leaf

    def timed_settler(layout):
        settle, memo = settler(layout), _plan_memos(layout)[1]

        def timed(*args):
            size, start = len(memo), time.perf_counter()
            answer = settle(*args)
            if len(memo) > size:
                spent["settle"].append(time.perf_counter() - start)
            return answer

        return timed

    best_learn = best_settle = float("inf")
    explorer._learn, explorer._settler = timed_learn, timed_settler
    try:
        for _ in range(repeat):
            spent.update(learn=[], settle=[])
            release_plan_memos()  # a cold search
            explore(config, limits)
            best_learn = min(best_learn, sum(spent["learn"]) / len(spent["learn"]))
            best_settle = min(best_settle, sum(spent["settle"]) / len(spent["settle"]))
    finally:
        explorer._learn, explorer._settler = learn, settler
    return (len(spent["learn"]), best_learn), (len(spent["settle"]), best_settle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", default="H,L,L")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-waits", type=int, default=1)
    parser.add_argument("--max-preemptions", type=int, default=1)
    parser.add_argument("--fix-wait", choices=("on", "off"), default="on")
    parser.add_argument("--fix-preempt", choices=("on", "off"), default="on")
    parser.add_argument("--fault", action="append", choices=sorted(FAULTS), default=[])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()

    config = KernelConfig(worker_count=args.workers, task_plan=parse_task_plan(args.plan),
                          max_waits_per_task=args.max_waits,
                          max_preemptions_per_task=args.max_preemptions,
                          fix_wait_need_sched=args.fix_wait == "on",
                          fix_preempt_need_sched=args.fix_preempt == "on",
                          faults=frozenset(args.fault))
    layout = layout_for(config)
    settled = []
    settler = explorer._settler

    def spying(layout):
        settle = settler(layout)

        def spy(raw, violation, number):
            answer = settle(raw, violation, number)
            settled.append((raw, violation, number, answer[2]))
            return answer

        return spy

    limits = Limits(max_violations=10**9)  # a complete search: one edge per transition
    explorer._settler = spying
    try:
        report = explore(config, limits)
    finally:
        explorer._settler = settler
    # the search settles its states first, then those of its traces' paths
    settled = settled[:report.states_visited]
    roots = _plan_memos(layout)[0]
    edges = [(raw, number, choice) for raw, _, number, options in settled for choice in options]
    successors = [_transition(layout, raw, number, choice, roots)[0]
                  for raw, number, choice in edges]
    settle = settler(layout)
    transitions = report.transitions_taken
    assert transitions == len(edges)

    def transition_part() -> None:
        for raw, number, choice in edges:
            _transition(layout, raw, number, choice, roots)

    def key_part() -> None:
        for raw in successors:
            symmetric_key(raw, layout)

    def settle_part() -> None:
        for raw, violation, number, _ in settled:
            settle(raw, violation, number)

    def search() -> None:
        explore(config, limits)

    print(f"plan={args.plan} workers={args.workers} waits={args.max_waits} "
          f"preemptions={args.max_preemptions}")
    print(f"states={report.states_visited} transitions={transitions}")
    print(f"{'part':<14} {'us/transition':>13}")
    total = 0.0
    for name, part in (("_transition", transition_part), ("symmetric_key", key_part),
                       ("settle", settle_part)):
        cost = best(args.repeat, part) / transitions * 1e6
        total += cost
        print(f"{name:<14} {cost:>13.3f}")
    print(f"{'sum':<14} {total:>13.3f}")
    print(f"{'explore':<14} {best(args.repeat, search) / transitions * 1e6:>13.3f}")
    cold = best(args.repeat, search, release_plan_memos)
    print(f"{'cold':<14} {cold / transitions * 1e6:>13.3f}")
    (learns, learn_s), (misses, settle_s) = cold_misses(config, limits, args.repeat)
    print(f"{'misses':<14} {learns} learns {learn_s * 1e6:.3f} us, "
          f"{misses} settle misses {settle_s * 1e6:.3f} us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
