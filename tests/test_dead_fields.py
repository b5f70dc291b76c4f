"""Dead values that the model does not keep, so that states differing only in
them share one buffer and one visited key.

A finished task's need_sched flag, its pending timer and its preemption
budget are dead: `model.reset_dead_fields` zeroes them at Finish. So is
the task a preemption decision observed, once its IPI is sent: `send_ipi`
stores only the PENDING flag in the core's `C_PENDING_IPI` cell. Each reduction must
keep what the unreduced search finds, which these tests get by patching
it out: the same violation classes, (verdict, state, symbol) pairs,
quiescent outcome and trace length per class, and every trace replays.
The reset, and apart the reset of the timer, are checked on all 32
fix/fault combos of H,L,L/2 and H,H/2, the flag on those of H,H/2 (with one
heavy task, the observed task is always task 0, so the flag changes nothing
on H,L,L/2)."""

from __future__ import annotations

import itertools

import pytest

from cells import core_cell, task_cell
from schedcheck import model
from schedcheck import explorer
from schedcheck.explorer import Limits, explore, replay, violation_class
from schedcheck.model import (
    C_PENDING_IPI,
    FAULTS,
    SPAWN_CURSOR,
    T_NEED_SCHED,
    T_PREEMPTIONS,
    T_STATE,
    T_TIMER,
    TASK_WIDTH,
    TERMINATED,
    PENDING,
    KernelConfig,
    KernelState,
    TaskKind,
    initial_state,
    layout_for,
    snapshot,
)

H = TaskKind.HEAVY
L = TaskKind.LIGHT

DEAD = (T_NEED_SCHED, T_PREEMPTIONS, T_TIMER)

PLANS = {"H,L,L/2": ((H, L, L), 2), "H,H/2": ((H, H), 2)}
COMBOS = [
    (fix_wait, fix_preempt, faults)
    for fix_wait, fix_preempt in itertools.product((True, False), repeat=2)
    for n in range(len(FAULTS) + 1)
    for faults in itertools.combinations(sorted(FAULTS), n)
]


def about_to_finish(config: KernelConfig):
    """Task 0 running on worker 1, its next poll its Finish: started, then
    polled past its one compute (no waits)."""
    assert config.max_waits_per_task == 0
    state = initial_state(config)
    state.get_next_task(1)
    state.poll_step(1)
    return state


def test_finish_zeroes_the_dead_fields():
    config = KernelConfig(worker_count=1, task_plan=(H,), max_waits_per_task=0)
    state = about_to_finish(config)
    state.preempt_decide(1)  # sets need_sched, with the preempt fix
    assert [state.buf[task_cell(state, 0, f)] for f in DEAD] == [1, 1, 0]
    state.poll_step(1)
    assert state.buf[task_cell(state, 0, T_STATE)] == TERMINATED
    assert [state.buf[task_cell(state, 0, f)] for f in DEAD] == [0, 0, 0]


def test_finish_zeroes_a_pending_timer():
    # A decision flags task 0 between its timer registration and its wait,
    # so it is requeued with its timer pending, and finishes before it fires.
    config = KernelConfig(worker_count=1, task_plan=(H,))
    state = initial_state(config)
    state.get_next_task(1)
    state.poll_step(1)  # compute
    state.poll_step(1)  # registers its timer
    state.preempt_decide(1)
    state.poll_step(1)  # requeued (need_sched)
    state.send_ipi()
    state.handle_ipi_step(1)  # canceled: the core is idle
    state.get_next_task(1)
    state.poll_step(1)  # compute
    assert [state.buf[task_cell(state, 0, f)] for f in DEAD] == [0, 1, 1]
    state.poll_step(1)
    assert state.buf[task_cell(state, 0, T_STATE)] == TERMINATED
    assert [state.buf[task_cell(state, 0, f)] for f in DEAD] == [0, 0, 0]
    assert state.fireable_timers() == []


# task 0's dead fields are (0, 1, 0) before its Finish; each of these differs
@pytest.mark.parametrize("values", [
    (1, 1, 0), (1, 0, 0), (0, 0, 0), (0, 1, 1), (1, 0, 1),
])
def test_states_differing_only_in_dead_fields_become_equal(values):
    config = KernelConfig(worker_count=1, task_plan=(H, L), max_waits_per_task=0)
    state = about_to_finish(config)
    assert [state.buf[task_cell(state, 0, f)] for f in DEAD] == [0, 1, 0]
    other = state.clone()
    for field, value in zip(DEAD, values):
        other.buf[task_cell(other, 0, field)] = value
    assert snapshot(other) != snapshot(state)
    state.poll_step(1)
    other.poll_step(1)
    assert snapshot(other) == snapshot(state)


def outcome(config: KernelConfig) -> tuple:
    """What the reduction must keep, from a complete search: class -> (trace
    length, (verdict, monitor state, symbol)), and whether any path ends
    quiescent; every trace replays to itself under the model searched."""
    report = explore(config, Limits(max_violations=10**9))
    assert not report.incomplete
    classes = {}
    for trace in report.violations:
        err = trace.monitor_error
        pair = (trace.verdict, err and str(err.current_state), err and str(err.symbol))
        classes[violation_class(config, trace.verdict, err, trace.detail)] = (len(trace.steps), pair)
        assert replay(config, trace.steps) == trace
    return classes, report.quiescent_ok > 0, report


def config_for(plan: str, fix_wait: bool, fix_preempt: bool, faults) -> KernelConfig:
    tasks, workers = PLANS[plan]
    return KernelConfig(worker_count=workers, task_plan=tasks,
                        fix_wait_need_sched=fix_wait, fix_preempt_need_sched=fix_preempt,
                        faults=frozenset(faults))


def assert_keeps_the_unreduced_verdicts(config: KernelConfig, patch, name, value) -> tuple:
    """The reduced search finds what the search with the attribute `name`
    patched to `value` finds, in no more states, and the unreduced search's
    traces also replay under the reduced model. Returns both state counts."""
    *reduced, reduced_report = outcome(config)
    with patch.context() as unreduced:
        unreduced.setattr(*name, value)
        *full, full_report = outcome(config)
    assert reduced == full
    assert reduced_report.states_visited <= full_report.states_visited
    for trace in full_report.violations:
        again = replay(config, trace.steps)
        assert violation_class(config, again.verdict, again.monitor_error, again.detail) == \
            violation_class(config, trace.verdict, trace.monitor_error, trace.detail)
    return reduced_report.states_visited, full_report.states_visited


def case_id(case) -> str:
    plan, (fix_wait, fix_preempt, faults) = case
    return (f"{plan}-{'W' if fix_wait else 'w'}{'P' if fix_preempt else 'p'}"
            f"-{'+'.join(faults) or 'none'}")


@pytest.mark.usefixtures("cold_memos")  # else the patched search reuses the reset's leaves
@pytest.mark.parametrize("case", list(itertools.product(PLANS, COMBOS)), ids=case_id)
def test_reset_keeps_the_unreduced_verdicts(case, monkeypatch):
    plan, combo = case
    assert_keeps_the_unreduced_verdicts(config_for(plan, *combo), monkeypatch,
                                        (model, "reset_dead_fields"), lambda buf, at: None)


reset_dead_fields = model.reset_dead_fields


def reset_keeping_the_timer(buf, at) -> None:
    """`reset_dead_fields` as it was before it zeroed the pending timer."""
    timer = buf[at + T_TIMER]
    reset_dead_fields(buf, at)
    buf[at + T_TIMER] = timer


@pytest.mark.usefixtures("cold_memos")  # else the patched search reuses the reset's leaves
@pytest.mark.parametrize("case", list(itertools.product(PLANS, COMBOS)), ids=case_id)
def test_timer_reset_keeps_the_unreduced_verdicts(case, monkeypatch):
    plan, combo = case
    assert_keeps_the_unreduced_verdicts(config_for(plan, *combo), monkeypatch,
                                        (model, "reset_dead_fields"), reset_keeping_the_timer)


@pytest.mark.parametrize("case", list(itertools.product(PLANS, COMBOS)), ids=case_id)
def test_no_reachable_state_holds_a_finished_task_with_a_pending_timer(case, monkeypatch):
    # every state the search reaches passes through `symmetric_key`, as the
    # bytes of a successor or as a key; a renaming moves records whole
    plan, combo = case
    config = config_for(plan, *combo)
    layout = layout_for(config)
    seen = []
    key = explorer.symmetric_key

    def spy(raw, layout):
        seen.append(raw)
        return key(raw, layout)

    monkeypatch.setattr(explorer, "symmetric_key", spy)
    explore(config, Limits(max_violations=10**9))
    finished = 0
    for raw in seen:
        for at in range(layout.tasks, layout.tasks + raw[SPAWN_CURSOR] * TASK_WIDTH, TASK_WIDTH):
            if raw[at + T_STATE] == TERMINATED:
                finished += 1
                assert raw[at + T_TIMER] == 0, raw
    assert finished


def test_send_ipi_keeps_only_the_flag():
    config = KernelConfig(worker_count=1, task_plan=(H,), max_waits_per_task=0)
    state = initial_state(config)
    state.get_next_task(1)
    state.preempt_decide(1)
    state.send_ipi()
    assert state.buf[core_cell(state, 1, C_PENDING_IPI)] == PENDING
    assert state.decision is None


send_ipi = KernelState.send_ipi


def send_ipi_keeping_the_task(state: KernelState) -> None:
    """`send_ipi` as it was before the flag: the core's cell keeps the task
    the decision observed."""
    target, observed = state.decision
    send_ipi(state)
    state.buf[core_cell(state, target, C_PENDING_IPI)] = observed


@pytest.mark.usefixtures("cold_memos")  # else the patched search reuses send_ipi's leaves
@pytest.mark.parametrize("case", [("H,H/2", combo) for combo in COMBOS], ids=case_id)
def test_ipi_flag_keeps_the_unreduced_verdicts(case, monkeypatch):
    plan, combo = case
    reduced, full = assert_keeps_the_unreduced_verdicts(
        config_for(plan, *combo), monkeypatch, (KernelState, "send_ipi"),
        send_ipi_keeping_the_task)
    assert reduced < full  # with two heavy tasks, every combo merges some states
