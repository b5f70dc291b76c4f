#!/usr/bin/env python3
"""Mean cost of one walk step, part by part, in microseconds.

Walks `--walks` seeds of one config (by default the benchmark's walk config:
H,H,H,H,L,L,L,L on 4 workers, 3 waits and 3 preemptions per heavy task) and
keeps each step's state before and after it, its enabled steps and its
choice. Then it times each part of a step over those inputs, best of
`--repeat`:

- `_settle`: the ending rule of the state a step reaches;
- `_run`: the step itself, on a clone of the state before it (clone
  included, since a walk steps one state in place);
- `snapshot`: the exact-state key of the state a step reaches;
- draw: the seeded choice among the enabled steps;
- render: the step's label and monitor lines. Only `replay` renders them,
  so a walk's own step does not pay this.

`walk` is `random_walk` itself, end to end, per step; `sum` is the sum of
the four parts that a walk step runs.

    python scripts/step_costs.py [--plan H,L,L] [--workers 2] [--walks 20]
"""

from __future__ import annotations

import argparse
import random
import time

from schedcheck.cli import parse_task_plan
from schedcheck.explorer import _run, _settle, random_walk
from schedcheck.model import KernelConfig, initial_state, snapshot


def best(repeat: int, part) -> float:
    """The least time of `repeat` calls of `part`, in seconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        part()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", default="H,H,H,H,L,L,L,L")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-waits", type=int, default=3)
    parser.add_argument("--max-preemptions", type=int, default=3)
    parser.add_argument("--walks", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1, help="first seed; one walk per seed after it")
    parser.add_argument("--max-steps", type=int, default=100_000)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()

    config = KernelConfig(worker_count=args.workers, task_plan=parse_task_plan(args.plan),
                          max_waits_per_task=args.max_waits,
                          max_preemptions_per_task=args.max_preemptions)
    seeds = range(args.seed, args.seed + args.walks)
    befores, afters, choices, options_seen = [], [], [], []
    for seed in seeds:
        rng = random.Random(seed)
        state = initial_state(config)
        verdict, _, options = _settle(state)
        for _ in range(args.max_steps):
            if verdict is not None or not options:
                break
            choice = rng.choice(options)
            befores.append(state)
            options_seen.append(options)
            choices.append(choice)
            state = state.clone()
            _run(state, choice)
            afters.append(state)
            verdict, _, options = _settle(state)
    steps = len(choices)

    def settle_part() -> None:
        for state in afters:
            _settle(state)

    def run_part() -> None:
        for state, choice in zip(befores, choices):
            _run(state.clone(), choice)

    def snapshot_part() -> None:
        for state in afters:
            snapshot(state)

    def draw_part() -> None:
        choose = random.Random(args.seed).choice
        for options in options_seen:
            choose(options)

    def render_part() -> None:
        for state in afters:
            state.step_label, state.step_lines

    def walk() -> None:
        for seed in seeds:
            random_walk(config, seed, args.max_steps)

    print(f"plan={args.plan} workers={args.workers} waits={args.max_waits} "
          f"preemptions={args.max_preemptions}")
    print(f"walks={args.walks} steps={steps}")
    print(f"{'part':<9} {'us/step':>8}")
    total = 0.0
    for name, part in (("_settle", settle_part), ("_run", run_part),
                       ("snapshot", snapshot_part), ("draw", draw_part)):
        cost = best(args.repeat, part) / steps * 1e6
        total += cost
        print(f"{name:<9} {cost:>8.2f}")
    print(f"{'sum':<9} {total:>8.2f}")
    print(f"{'walk':<9} {best(args.repeat, walk) / steps * 1e6:>8.2f}")
    print(f"{'render':<9} {best(args.repeat, render_part) / steps * 1e6:>8.2f}  (replay only)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
