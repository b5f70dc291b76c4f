"""Termination guard: `explore` ends a path only at a state with no enabled
step, which it reports as quiescent or as a deadlock. A state whose every
enabled step led back to itself, or a longer cycle, would be a livelock
that neither verdict names. So an exact depth-first search (state bytes as
keys, no worker symmetry) of every fix/fault combo on four rungs checks
that every back edge is a one-step `Worker` requeue self-loop, and that no
state has only self-loop steps."""

from __future__ import annotations

import itertools
from array import array
from sys import byteorder

import pytest

from schedcheck.explorer import _apply, _settler, _transition
from schedcheck.model import FAULTS, KernelConfig, KernelState, TaskKind, initial_state, layout_for

H = TaskKind.HEAVY
L = TaskKind.LIGHT

RUNGS = {"H,L,L/2": ((H, L, L), 2), "H,H/2": ((H, H), 2),
         "H,L,L/3": ((H, L, L), 3), "H,H,L/2": ((H, H, L), 2)}
COMBOS = [
    (fix_wait, fix_preempt, faults)
    for fix_wait, fix_preempt in itertools.product((True, False), repeat=2)
    for n in range(len(FAULTS) + 1)
    for faults in itertools.combinations(sorted(FAULTS), n)
]


def search_shape(config: KernelConfig) -> tuple[list[tuple], list[bytes]]:
    """Exact DFS, violating states as leaves: each back edge as (step,
    label, whether it is a self-loop), and the states whose steps all loop."""
    layout = layout_for(config)
    settle, roots = _settler(layout), {}

    def successors(key, violation) -> list[tuple]:
        number = int.from_bytes(key, byteorder)
        verdict, _, options = settle(key, violation, number)
        if verdict is not None:
            return []
        return [(step, *_transition(layout, key, number, step, roots)) for step in options]

    def push(key, violation) -> None:
        succs = successors(key, violation)
        if succs and all(succ == key for _, succ, _ in succs):
            stuck.append(key)
        on_stack.add(key)
        stack.append((key, iter(succs)))

    back_edges: list[tuple] = []
    stuck: list[bytes] = []
    stack: list[tuple] = []
    on_stack: set[bytes] = set()
    init = bytes(initial_state(config).buf)
    seen = {init}
    push(init, None)
    while stack:
        key, succs = stack[-1]
        for step, succ, leaf in succs:
            if succ in on_stack:
                state = KernelState(layout, array(layout.boot.typecode, key))
                back_edges.append((step, _apply(state, step).step_label, succ == key))
            elif succ not in seen:
                seen.add(succ)
                push(succ, leaf[2])
                break
        else:
            on_stack.discard(key)
            stack.pop()
    return back_edges, stuck


def case_id(case) -> str:
    rung, (fix_wait, fix_preempt, faults) = case
    return (f"{rung}-{'W' if fix_wait else 'w'}{'P' if fix_preempt else 'p'}"
            f"-{'+'.join(faults) or 'none'}")


@pytest.mark.parametrize("case", list(itertools.product(RUNGS, COMBOS)), ids=case_id)
def test_every_cycle_is_a_requeue_self_loop_that_another_step_leaves(case):
    rung, (fix_wait, fix_preempt, faults) = case
    tasks, workers = RUNGS[rung]
    config = KernelConfig(worker_count=workers, task_plan=tasks,
                          fix_wait_need_sched=fix_wait, fix_preempt_need_sched=fix_preempt,
                          faults=frozenset(faults))
    back_edges, stuck = search_shape(config)
    for step, label, self_loop in back_edges:
        assert self_loop and step[0] == "Worker" and "requeued" in label, (step, label)
    assert stuck == []


def test_the_guard_sees_the_requeue_self_loop():
    config = KernelConfig(faults=frozenset({"enqueue-before-state"}))
    back_edges, _ = search_shape(config)
    assert back_edges
