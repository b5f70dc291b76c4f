"""A saved context is the task's own pc and pending-wait flag.

A preemption's save-context step only sets the task's `T_SAVED` flag, and
a resume only clears it; neither copies `T_PC` or `T_PENDING_WAIT`. That
keeps the context only if no step but the task's own resume changes those
two cells while the flag is set: the task's core is in its IPI handler,
which masks the poll, and a fetch by any core is the resume. Every
reachable state (exact bytes, no symmetry) of the 32 fix/fault combos of
H,L/2, H,H/2 and the default H,L,L/2, and of H,L,L/3 and H,H,L/2, is
checked, for every enabled step and every task whose flag is set."""

from __future__ import annotations

import itertools
from collections import deque
from sys import byteorder

import pytest

from schedcheck.explorer import _settler, _transition
from schedcheck.model import (
    FAULTS, T_PC, T_PENDING_WAIT, T_SAVED, TASK_WIDTH, KernelConfig, TaskKind, initial_state,
    layout_for,
)

H = TaskKind.HEAVY
L = TaskKind.LIGHT

PLANS = {"H,L/2": (H, L), "H,H/2": (H, H)}
COMBOS = [
    (fix_wait, fix_preempt, faults)
    for fix_wait, fix_preempt in itertools.product((True, False), repeat=2)
    for n in range(len(FAULTS) + 1)
    for faults in itertools.combinations(sorted(FAULTS), n)
]


def flagged_states(config: KernelConfig) -> int:
    """Step every reachable state of `config`, breadth first, by each of its
    enabled steps, asserting that no step changes the pc or pending wait of
    a task whose flag it leaves set; returns the number of states with some
    flag set."""
    layout = layout_for(config)
    settle, roots = _settler(layout), {}
    assert layout.boot.typecode == "b"  # a byte is a cell
    records = range(layout.tasks, layout.cores, TASK_WIDTH)
    init = bytes(initial_state(config).buf)
    seen, frontier, flagged = {init}, deque([(init, None)]), 0
    while frontier:
        raw, violation = frontier.popleft()
        number = int.from_bytes(raw, byteorder)
        verdict, _, options = settle(raw, violation, number)
        if verdict is not None:
            continue
        saved = [at for at in records if raw[at + T_SAVED]]
        flagged += bool(saved)
        for step in options:
            succ, leaf = _transition(layout, raw, number, step, roots)
            for at in saved:
                if succ[at + T_SAVED]:
                    context = (at + T_PC, at + T_PENDING_WAIT)
                    assert [succ[c] for c in context] == [raw[c] for c in context], \
                        (config, list(raw), step)
            if succ not in seen:
                seen.add(succ)
                frontier.append((succ, leaf[2]))
    return flagged


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_no_step_but_the_resume_moves_a_saved_context(plan):
    flagged = 0
    for fix_wait, fix_preempt, faults in COMBOS:
        flagged += flagged_states(KernelConfig(
            task_plan=PLANS[plan], fix_wait_need_sched=fix_wait,
            fix_preempt_need_sched=fix_preempt, faults=frozenset(faults)))
    assert flagged > 32


THREE_TASKS = [
    KernelConfig(fix_wait_need_sched=fix_wait, fix_preempt_need_sched=fix_preempt,
                 faults=frozenset(faults))
    for fix_wait, fix_preempt, faults in COMBOS
] + [KernelConfig(worker_count=3), KernelConfig(task_plan=(H, H, L))]


def config_id(c: KernelConfig) -> str:
    return (f"{','.join(k.value for k in c.task_plan)}/{c.worker_count}"
            f"-w{int(c.fix_wait_need_sched)}p{int(c.fix_preempt_need_sched)}"
            f"-{''.join(str(int(f in c.faults)) for f in sorted(FAULTS))}")


@pytest.mark.parametrize("config", THREE_TASKS, ids=config_id)
def test_no_step_but_the_resume_moves_a_saved_context_of_three_tasks(config):
    assert flagged_states(config) > 0
