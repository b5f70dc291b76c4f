"""`explore` keeps one shortest trace per violation class. An oracle that
shares neither the transition memo nor the worker-symmetry key, an exact
breadth-first search over `_apply` keyed by `snapshot`, gives the classes
of every violating step and the least depth of each. On all 32 fix/fault
combos of H,L,L/2 and H,H/2, `explore` must find the same classes, each by
a trace exactly that long that replays to itself; searched with the exact
key, it must count the oracle's violating states of each class."""

from __future__ import annotations

import itertools
import re

import pytest

from cells import all_tasks_terminal
from schedcheck import explorer
from schedcheck.explorer import (
    VERDICT_ASSERTION,
    VERDICT_DEADLOCK,
    VERDICT_MONITOR,
    Limits,
    _apply,
    check_invariants,
    enabled,
    explore,
    replay,
)
from schedcheck.model import FAULTS, KernelConfig, TaskKind, initial_state, snapshot

H = TaskKind.HEAVY
L = TaskKind.LIGHT

PLANS = {"H,L,L/2": ((H, L, L), 2), "H,H/2": ((H, H), 2)}
COMBOS = [
    (fix_wait, fix_preempt, faults)
    for fix_wait, fix_preempt in itertools.product((True, False), repeat=2)
    for n in range(len(FAULTS) + 1)
    for faults in itertools.combinations(sorted(FAULTS), n)
]


def class_of(config: KernelConfig, verdict: str, violation, detail: str) -> tuple:
    """The class of a violation, written out apart from `explorer`: the
    monitor's (task kind, state, symbol), or the detail with its numbers
    masked."""
    if violation is not None:
        return (verdict, config.task_plan[violation.task].value,
                str(violation.current_state), str(violation.symbol))
    return verdict, re.sub(r"[0-9]+", "#", detail)


def oracle(config: KernelConfig) -> tuple[dict[tuple, int], dict[tuple, int]]:
    """Class -> least depth of a violating step of it, over every step
    taken, also those into a state already seen; and class -> the states
    first reached by a step of it. Violating states are leaves, as in
    `explore`."""
    init = initial_state(config)
    seen = {snapshot(init)}
    level, depth, least, states = [init], 0, {}, {}
    while level:
        depth += 1
        frontier = []
        for state in level:
            for choice in enabled(state):
                succ = _apply(state, choice)
                key = snapshot(succ)
                new = key not in seen
                seen.add(key)
                if succ.violation is not None:
                    found = class_of(config, VERDICT_MONITOR, succ.violation, "")
                elif (failure := check_invariants(succ)) is not None:
                    found = class_of(config, VERDICT_ASSERTION, None, failure)
                elif not enabled(succ) and not all_tasks_terminal(succ):
                    found = class_of(config, VERDICT_DEADLOCK, None, "no step enabled, tasks not terminal")
                else:
                    if new:
                        frontier.append(succ)
                    continue
                least.setdefault(found, depth)
                if new:
                    states[found] = states.get(found, 0) + 1
        level = frontier
    return least, states


def case_id(case) -> str:
    plan, (fix_wait, fix_preempt, faults) = case
    return (f"{plan}-{'W' if fix_wait else 'w'}{'P' if fix_preempt else 'p'}"
            f"-{'+'.join(faults) or 'none'}")


@pytest.mark.parametrize("case", list(itertools.product(PLANS, COMBOS)), ids=case_id)
def test_one_shortest_replayable_trace_per_class(case, monkeypatch):
    plan, (fix_wait, fix_preempt, faults) = case
    tasks, workers = PLANS[plan]
    config = KernelConfig(worker_count=workers, task_plan=tasks,
                          fix_wait_need_sched=fix_wait, fix_preempt_need_sched=fix_preempt,
                          faults=frozenset(faults))
    report = explore(config, Limits(max_violations=10**9))
    assert not report.incomplete
    found = [class_of(config, t.verdict, t.monitor_error, t.detail) for t in report.violations]
    assert len(found) == len(set(found)), "a class was recorded twice"
    least, states = oracle(config)
    assert {kind: len(t.steps) for kind, t in zip(found, report.violations)} == least
    for trace in report.violations:
        assert replay(config, trace.steps) == trace

    monkeypatch.setattr(explorer, "symmetric_key", lambda raw, layout: raw)
    exact = explore(config, Limits(max_violations=10**9))
    assert {class_of(config, t.verdict, t.monitor_error, t.detail): count for t, count
            in zip(exact.violations, exact.violating_states)} == states
