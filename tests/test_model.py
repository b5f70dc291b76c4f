"""Kernel-model operation tests: spawn/wake/timer/fetch/poll/preempt
semantics, snapshot injectivity, and structural invariants under random
operation sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cells import core_cell, run_queue, task_cell
from schedcheck.cli import matrix_configs
from schedcheck.monitor import Event
from schedcheck.model import (
    C_CURRENT,
    C_PENDING_IPI,
    FIX_WAIT,
    IN_FLIGHT,
    PENDING,
    PREEMPTED,
    RUNNABLE,
    RUNNING,
    SPAWN_CURSOR,
    T_IN_QUEUE,
    T_NEED_SCHED,
    T_PC,
    T_PENDING_WAIT,
    T_PREEMPTIONS,
    T_SAVED,
    T_STATE,
    T_TIMER,
    TERMINATED,
    WAITING,
    Action,
    ConfigurationError,
    KernelConfig,
    TaskKind,
    TaskState,
    UsageError,
    initial_state,
    layout_for,
    script_for,
    snapshot,
)

H = TaskKind.HEAVY
L = TaskKind.LIGHT


def config(**kw) -> KernelConfig:
    kw.setdefault("worker_count", 2)
    kw.setdefault("task_plan", (H, L))
    return KernelConfig(**kw)


def assert_usage_error(call, message: str) -> None:
    """`call()` raises UsageError with exactly `message`."""
    with pytest.raises(UsageError) as caught:
        call()
    assert str(caught.value) == message


def run_until_running(state, core_id=1):
    """Fetch the queue head on a worker so it is Running there."""
    state.get_next_task(core_id)
    task = state.buf[core_cell(state, core_id, C_CURRENT)]
    assert task >= 0
    return task


class TestScripts:
    def test_heavy_alternates_waits(self):
        cfg = config(max_waits_per_task=1)
        assert script_for(H, cfg) == (
            Action.COMPUTE,
            Action.REGISTER_TIMER_AND_PEND,
            Action.COMPUTE,
            Action.FINISH,
        )

    def test_light_never_waits(self):
        cfg = config(max_waits_per_task=3)
        script = script_for(L, cfg)
        assert script == (Action.COMPUTE, Action.COMPUTE, Action.FINISH)
        assert Action.REGISTER_TIMER_AND_PEND not in script

    def test_scripts_end_with_finish(self):
        cfg = config(max_waits_per_task=2)
        assert script_for(H, cfg)[-1] is Action.FINISH
        assert script_for(L, cfg)[-1] is Action.FINISH


class TestSpawn:
    def test_boot_spawn_creates_first_planned_task(self):
        state = initial_state(config(task_plan=(H, L)))
        assert state.buf[SPAWN_CURSOR] == 1
        assert state.layout.kinds[0] == "H"
        assert run_queue(state) == (0,)

    def test_exhausted_plan_is_a_usage_error(self):
        state = initial_state(config(task_plan=(H,)))
        before = snapshot(state)
        with pytest.raises(UsageError):
            state.spawn_next()
        assert snapshot(state) == before

    def test_spawned_task_is_woken_into_the_queue(self):
        state = initial_state(config(task_plan=(H,)))
        assert state.buf[task_cell(state, 0, T_STATE)] == RUNNABLE
        assert state.buf[task_cell(state, 0, T_IN_QUEUE)] == 1
        assert str(state.monitors.current(0)) == "Runnable(false)"

    def test_spawn_events_are_spawn_then_wake(self):
        state = initial_state(config(task_plan=(H, L)))
        run_until_running(state)
        state.spawn_next()
        assert state.step_lines == [
            "task=1 Init(*) -- Spawn --> Waiting(false)",
            "task=1 Waiting(false) -- Wake --> Runnable(false)",
        ]


class TestWake:
    """timer_fire's wake, by the state of the task whose entry is pending."""

    def test_wake_waiting_task_enqueues(self):
        state = initial_state(config(task_plan=(H,), worker_count=1))
        run_until_running(state)
        state.poll_step(1)  # compute
        state.poll_step(1)  # register timer
        state.poll_step(1)  # enter waiting
        assert state.buf[task_cell(state, 0, T_STATE)] == WAITING
        assert len(run_queue(state)) == 0
        state.timer_fire(0)
        assert state.buf[task_cell(state, 0, T_STATE)] == RUNNABLE
        assert run_queue(state) == (0,)

    def test_wake_running_with_fix_sets_flag(self):
        state = initial_state(config(task_plan=(H,), fix_wait_need_sched=True))
        run_until_running(state)
        state.poll_step(1)  # compute
        state.poll_step(1)  # register timer: still running
        state.timer_fire(0)
        assert state.buf[task_cell(state, 0, T_NEED_SCHED)] == 1
        assert len(run_queue(state)) == 0
        assert str(state.monitors.current(0)) == "Running(true)"

    def test_wake_running_without_fix_is_dropped(self):
        state = initial_state(config(task_plan=(H,), fix_wait_need_sched=False))
        run_until_running(state)
        state.poll_step(1)  # compute
        state.poll_step(1)  # register timer: still running
        expected = state.buf[:]
        expected[task_cell(state, 0, T_TIMER)] = 0  # the entry is consumed, nothing else
        state.timer_fire(0)
        assert state.buf == expected

    def test_wake_terminated_task_is_ignored(self):
        state = initial_state(config(task_plan=(L,), worker_count=1))
        run_until_running(state)
        for _ in range(3):
            state.poll_step(1)
        assert state.buf[task_cell(state, 0, T_STATE)] == TERMINATED
        before = snapshot(state)
        state.buf[task_cell(state, 0, T_TIMER)] = 1  # an entry left pending
        state.timer_fire(0)
        assert snapshot(state) == before


class TestTimerFire:
    def test_singleton_choice(self):
        state = initial_state(config(task_plan=(H,), worker_count=1))
        run_until_running(state)
        state.poll_step(1)
        state.poll_step(1)  # register: timers {0}
        assert state.fireable_timers() == [0]
        state.timer_fire(0)
        assert state.fireable_timers() == []

    def test_empty_registry_not_enabled(self):
        state = initial_state(config())
        assert state.fireable_timers() == []
        with pytest.raises(UsageError):
            state.timer_fire(0)

    def test_explicit_choice_overrides_lowest_id_default(self):
        # two heavy tasks both registered; firing either is a distinct branch
        state = initial_state(config(task_plan=(H, H), worker_count=2))
        run_until_running(state, 1)
        state.spawn_next()
        run_until_running(state, 2)
        for core in (1, 2):
            state.poll_step(core)  # compute
            state.poll_step(core)  # register timer
        assert state.fireable_timers() == [0, 1]
        state.timer_fire(1)
        assert state.step_label == "timer fire: wake task 1"
        assert state.fireable_timers() == [0]

    def one_timer_pending(self):
        """Tasks 0 and 1 of three spawned, only task 0's timer entry pending."""
        state = initial_state(config(task_plan=(H, L, L), worker_count=2))
        run_until_running(state, 1)
        state.spawn_next()
        state.poll_step(1)  # compute
        state.poll_step(1)  # register timer
        assert state.fireable_timers() == [0]
        return state

    @pytest.mark.parametrize("task", [1, 2, 3, 7, -1, -2, -3, -6])
    def test_rejects_an_entry_that_is_not_pending(self, task):
        # 1 is spawned but has no timer, 2 is not spawned, 3 and 7 are out
        # of range; a negative id must not index some other record's cell
        state = self.one_timer_pending()
        before = snapshot(state)
        assert_usage_error(
            lambda: state.timer_fire(task), f"timer entry for task {task} not fireable"
        )
        assert snapshot(state) == before

    @pytest.mark.parametrize("task", [0, 5, -1])
    def test_rejects_any_choice_when_nothing_is_pending(self, task):
        state = initial_state(config())
        assert_usage_error(lambda: state.timer_fire(task), "no fireable timer entry")


class TestGetNextTask:
    def test_fifo_order(self):
        state = initial_state(config(task_plan=(H, L), worker_count=2))
        run_until_running(state, 1)
        state.spawn_next()
        state.buf[core_cell(state, 1, C_CURRENT)] = -1  # park the first task artificially
        state.buf[task_cell(state, 0, T_STATE)] = RUNNABLE
        state._enqueue(0)
        assert run_queue(state) == (1, 0)
        state.get_next_task(2)
        assert state.buf[core_cell(state, 2, C_CURRENT)] == 1
        assert state.buf[task_cell(state, 1, T_STATE)] == RUNNING
        assert run_queue(state) == (0,)

    def test_empty_queue_is_a_usage_error(self):
        state = initial_state(config(task_plan=(H,), worker_count=2))
        run_until_running(state, 1)
        before = snapshot(state)
        with pytest.raises(UsageError):
            state.get_next_task(2)
        assert snapshot(state) == before

    def test_primary_core_cannot_fetch(self):
        state = initial_state(config())
        with pytest.raises(UsageError):
            state.get_next_task(0)

    def test_busy_core_cannot_fetch(self):
        state = initial_state(config(task_plan=(H, L)))
        run_until_running(state, 1)
        state.spawn_next()
        with pytest.raises(UsageError):
            state.get_next_task(1)

    def test_a_core_with_an_ipi_pending_cannot_fetch(self):
        # an IPI masks a core's other steps, so a fetch under one is a bug
        state = initial_state(config())
        state.buf[core_cell(state, 1, C_PENDING_IPI)] = PENDING
        with pytest.raises(AssertionError, match="fetch with an IPI pending"):
            state.get_next_task(1)

    def test_running_head_is_requeued_and_skipped(self):
        state = initial_state(config(task_plan=(H, L)))
        run_until_running(state, 1)
        # simulate the enqueue-before-state window: task 0 running and queued
        state._enqueue(0)
        mon_before = state.monitors.current(0)
        state.get_next_task(2)
        assert state.step_label == "worker 2: task 0 still running, requeued"
        assert state.buf[core_cell(state, 2, C_CURRENT)] == -1
        assert run_queue(state) == (0,)
        assert state.monitors.current(0) == mon_before

    def test_resume_restores_saved_progress(self):
        # drive a full preemption, then fetch the preempted task
        state = initial_state(
            config(task_plan=(H,), max_waits_per_task=0, max_preemptions_per_task=1)
        )
        run_until_running(state, 1)
        state.poll_step(1)  # compute: pc 1
        state.preempt_decide(1)
        state.send_ipi()
        state.handle_ipi_step(1)  # save context
        state.handle_ipi_step(1)  # set state
        state.handle_ipi_step(1)  # enqueue + finish
        assert state.buf[task_cell(state, 0, T_STATE)] == PREEMPTED
        assert state.buf[task_cell(state, 0, T_SAVED)] == 1
        state.get_next_task(2)
        assert state.step_label == "worker 2: resume task 0 at pc 1"
        assert state.buf[core_cell(state, 2, C_CURRENT)] == 0
        assert state.buf[task_cell(state, 0, T_PC)] == 1
        assert state.buf[task_cell(state, 0, T_STATE)] == RUNNING
        assert state.buf[task_cell(state, 0, T_SAVED)] == 0
        assert state.buf[task_cell(state, 0, T_NEED_SCHED)] == 0


class TestPollStep:
    def test_register_then_wait_without_flag(self):
        state = initial_state(config(task_plan=(H,), worker_count=1))
        run_until_running(state)
        state.poll_step(1)  # compute
        state.poll_step(1)  # register
        assert state.fireable_timers() == [0]
        assert state.buf[task_cell(state, 0, T_PENDING_WAIT)] == 1
        state.poll_step(1)  # waiting transition
        assert state.buf[task_cell(state, 0, T_STATE)] == WAITING
        assert state.buf[task_cell(state, 0, T_PENDING_WAIT)] == 0
        assert state.buf[core_cell(state, 1, C_CURRENT)] == -1

    def test_register_then_requeue_with_flag(self):
        state = initial_state(config(task_plan=(H,), worker_count=1))
        run_until_running(state)
        state.poll_step(1)
        state.poll_step(1)
        state.timer_fire(0)  # wake while running: sets need_sched with the fix
        assert state.buf[task_cell(state, 0, T_NEED_SCHED)] == 1
        state.poll_step(1)
        assert state.buf[task_cell(state, 0, T_STATE)] == RUNNABLE
        assert state.buf[task_cell(state, 0, T_NEED_SCHED)] == 0
        assert run_queue(state) == (0,)
        assert str(state.monitors.current(0)) == "Runnable(false)"

    def test_finish_terminates(self):
        state = initial_state(config(task_plan=(L,), worker_count=1))
        run_until_running(state)
        state.poll_step(1)
        state.poll_step(1)
        state.poll_step(1)
        assert state.buf[task_cell(state, 0, T_STATE)] == TERMINATED
        assert state.buf[core_cell(state, 1, C_CURRENT)] == -1
        assert str(state.monitors.current(0)) == "Terminated(*)"

    def test_poll_without_current_task_rejected(self):
        state = initial_state(config())
        with pytest.raises(UsageError):
            state.poll_step(1)


class TestPreemption:
    def make_running_heavy(self, **kw):
        kw.setdefault("task_plan", (H,))
        kw.setdefault("max_waits_per_task", 0)
        kw.setdefault("max_preemptions_per_task", 1)
        state = initial_state(config(**kw))
        run_until_running(state, 1)
        return state

    def test_decide_records_and_raises_flag(self):
        state = self.make_running_heavy()
        assert state.preempt_candidates() == [1]
        state.preempt_decide(1)
        assert state.decision == (1, 0)
        assert state.buf[IN_FLIGHT] == 1
        assert state.buf[task_cell(state, 0, T_NEED_SCHED)] == 1

    def test_light_tasks_are_not_candidates(self):
        state = initial_state(config(task_plan=(L,)))
        run_until_running(state, 1)
        assert state.preempt_candidates() == []

    @pytest.mark.parametrize("core", [0, 3, -1])
    def test_decide_rejects_a_core_that_is_no_worker(self, core):
        # 0 is the primary, 3 is past the last worker of two
        state = self.make_running_heavy(task_plan=(H, L), worker_count=2)
        before = snapshot(state)
        assert_usage_error(
            lambda: state.preempt_decide(core), f"core {core} is not a preemption candidate"
        )
        assert snapshot(state) == before
        assert state.buf[IN_FLIGHT] == 0

    def test_decide_rejects_an_idle_core(self):
        state = self.make_running_heavy(task_plan=(H, L), worker_count=2)
        assert state.buf[core_cell(state, 2, C_CURRENT)] == -1
        assert_usage_error(lambda: state.preempt_decide(2), "core 2 is not a preemption candidate")

    def test_decide_rejects_a_core_running_a_light_task(self):
        state = initial_state(config(task_plan=(L,)))
        run_until_running(state, 1)
        state.buf[task_cell(state, 0, T_PREEMPTIONS)] = 1  # whatever its budget field holds
        assert_usage_error(lambda: state.preempt_decide(1), "core 1 is not a preemption candidate")

    @pytest.mark.parametrize(
        "task_state", [TaskState.RUNNABLE, TaskState.WAITING, TaskState.PREEMPTED]
    )
    def test_decide_rejects_a_task_that_is_not_running(self, task_state):
        state = self.make_running_heavy()
        state.buf[task_cell(state, 0, T_STATE)] = task_state.code
        assert_usage_error(lambda: state.preempt_decide(1), "core 1 is not a preemption candidate")

    def test_decide_rejects_a_task_with_spent_budget(self):
        state = self.make_running_heavy()
        state.buf[task_cell(state, 0, T_PREEMPTIONS)] = 0
        assert_usage_error(lambda: state.preempt_decide(1), "core 1 is not a preemption candidate")

    def test_no_flag_without_fix(self):
        state = self.make_running_heavy(fix_preempt_need_sched=False)
        state.preempt_decide(1)
        assert state.buf[task_cell(state, 0, T_NEED_SCHED)] == 0

    def test_send_ipi_targets_decided_core(self):
        state = self.make_running_heavy()
        state.preempt_decide(1)
        state.send_ipi()
        assert state.buf[core_cell(state, 1, C_PENDING_IPI)] == PENDING
        assert state.decision is None

    def test_send_without_decision_rejected(self):
        state = self.make_running_heavy()
        with pytest.raises(UsageError):
            state.send_ipi()

    def test_ipi_still_lands_after_observed_task_left(self):
        state = self.make_running_heavy(task_plan=(H, L), worker_count=2)
        state.preempt_decide(1)
        state.poll_step(1)  # compute
        state.poll_step(1)  # finish: observed task terminated
        assert state.buf[task_cell(state, 0, T_STATE)] == TERMINATED
        state.send_ipi()
        assert state.buf[core_cell(state, 1, C_PENDING_IPI)] == PENDING  # stale decision delivered

    def test_handle_cancels_on_idle_core(self):
        state = self.make_running_heavy()
        state.preempt_decide(1)
        state.poll_step(1)
        state.poll_step(1)  # finish
        state.send_ipi()
        state.handle_ipi_step(1)
        assert state.buf[IN_FLIGHT] == 0
        assert state.buf[core_cell(state, 1, C_PENDING_IPI)] == -1

    def test_handle_cancels_when_flag_clear(self):
        # the race: observed task finished, a fresh task runs when the IPI lands
        state = self.make_running_heavy(task_plan=(H, H), worker_count=1)
        state.preempt_decide(1)
        state.poll_step(1)
        state.spawn_next()
        state.poll_step(1)  # task 0 finishes
        state.get_next_task(1)  # task 1 starts: need_sched false
        state.send_ipi()
        state.handle_ipi_step(1)
        assert state.step_label == "core 1: IPI canceled (task 1 need_sched clear)"
        assert state.buf[task_cell(state, 1, T_STATE)] == RUNNING
        assert state.buf[IN_FLIGHT] == 0

    def test_handle_cancels_when_budget_spent(self):
        state = self.make_running_heavy()
        state.preempt_decide(1)
        state.send_ipi()
        state.buf[task_cell(state, 0, T_PREEMPTIONS)] = 0
        state.handle_ipi_step(1)
        assert state.step_label == "core 1: IPI canceled (task 0 budget spent)"
        assert state.buf[task_cell(state, 0, T_STATE)] == RUNNING
        assert state.buf[task_cell(state, 0, T_SAVED)] == 0
        assert state.buf[IN_FLIGHT] == 0

    def test_handle_without_fix_preempts_the_newcomer(self):
        state = self.make_running_heavy(
            task_plan=(H, H), worker_count=1, fix_preempt_need_sched=False
        )
        state.preempt_decide(1)
        state.poll_step(1)
        state.spawn_next()
        state.poll_step(1)
        state.get_next_task(1)  # task 1 just started
        state.send_ipi()
        state.handle_ipi_step(1)  # save
        state.handle_ipi_step(1)  # set state: the bug fires here
        assert state.buf[task_cell(state, 1, T_STATE)] == PREEMPTED
        assert state.violation is not None
        assert str(state.violation.current_state) == "Running(false)"
        assert str(state.violation.symbol) == "Preempt"

    def test_full_preemption_saves_and_restores_context(self):
        state = self.make_running_heavy(worker_count=2)
        state.poll_step(1)  # pc 1
        state.preempt_decide(1)
        state.send_ipi()
        state.handle_ipi_step(1)
        assert state.step_label == "core 1: save context of task 0"
        assert state.buf[task_cell(state, 0, T_SAVED)] == 1
        state.handle_ipi_step(1)
        state.handle_ipi_step(1)
        assert state.buf[core_cell(state, 1, C_CURRENT)] == -1
        assert state.buf[task_cell(state, 0, T_PREEMPTIONS)] == 0
        # the saved context is the task's own pc and pending wait
        assert state.buf[task_cell(state, 0, T_PC)] == 1
        assert state.buf[task_cell(state, 0, T_PENDING_WAIT)] == 0
        # resumed on the other worker
        state.get_next_task(2)
        assert state.buf[core_cell(state, 2, C_CURRENT)] == 0
        assert state.buf[task_cell(state, 0, T_PC)] == 1
        assert state.buf[task_cell(state, 0, T_SAVED)] == 0

    def test_preemption_between_register_and_wait_resumes_mid_wait(self):
        state = self.make_running_heavy(worker_count=2, max_waits_per_task=1)
        state.poll_step(1)  # compute: pc 1
        state.poll_step(1)  # register timer: pc 2, mid-wait
        state.preempt_decide(1)
        state.send_ipi()
        for _ in range(3):
            state.handle_ipi_step(1)
        assert state.buf[task_cell(state, 0, T_SAVED)] == 1
        assert state.buf[task_cell(state, 0, T_PC)] == 2
        assert state.buf[task_cell(state, 0, T_PENDING_WAIT)] == 1
        state.get_next_task(2)
        assert state.step_label == "worker 2: resume task 0 at pc 2"
        assert state.buf[task_cell(state, 0, T_PENDING_WAIT)] == 1
        assert state.buf[task_cell(state, 0, T_SAVED)] == 0
        state.poll_step(2)  # second half of the wait
        assert state.buf[task_cell(state, 0, T_STATE)] == WAITING


class TestSnapshot:
    def test_snapshot_is_deterministic(self):
        state = initial_state(config())
        assert snapshot(state) == snapshot(state)

    def test_queue_order_distinguishes_states(self):
        a = initial_state(config(task_plan=(H, L)))
        b = initial_state(config(task_plan=(H, L)))
        for s in (a, b):
            run_until_running(s, 1)
            s.spawn_next()
            s.buf[core_cell(s, 1, C_CURRENT)] = -1
            s.buf[task_cell(s, 0, T_STATE)] = RUNNABLE
        a._enqueue(0)          # queue (1, 0)
        head = b._dequeue()    # rebuild as (0, 1)
        b._enqueue(0)
        b._enqueue(head)
        assert snapshot(a) != snapshot(b)

    def test_clone_preserves_encoding(self):
        state = initial_state(config())
        assert snapshot(state.clone()) == snapshot(state)

    def test_identical_schedule_replays_to_identical_encoding(self):
        from schedcheck.explorer import _apply, enabled

        def run_schedule():
            state = initial_state(config(task_plan=(H, L)))
            for _ in range(10):
                options = enabled(state)
                if not options:
                    break
                state = _apply(state, options[0])
            return snapshot(state)

        assert run_schedule() == run_schedule()

    def test_config_beyond_byte_cells_gets_wider_cells(self):
        # 130 heavy tasks: task ids past a signed byte
        from schedcheck.explorer import random_walk

        cfg = config(task_plan=(H,) * 130)
        state = initial_state(cfg)
        assert state.layout.boot.typecode == "h"
        assert len(snapshot(state)) == 2 * len(state.buf)
        # the walk runs every task, ids past 127 too, to its end
        report = random_walk(cfg, seed=5, max_steps=3000)
        assert report.violations == []
        assert report.quiescent_ok == 1

    def test_monitor_state_is_part_of_the_encoding(self):
        a = initial_state(config(task_plan=(H,)))
        b = a.clone()
        b.monitors.fire(0, Event.GET_NEXT)
        assert snapshot(a) != snapshot(b)
        assert str(a.monitors.current(0)) == "Runnable(false)"  # the clone's own cells


class TestRunQueue:
    """The run queue of a state: a FIFO of task ids, at most one entry per
    task and one per planned task in all."""

    def empty_queue(self, tasks: int):
        """A state with `tasks` spawned tasks and none of them queued."""
        state = initial_state(config(task_plan=(L,) * tasks))
        for _ in range(tasks - 1):
            state.spawn_next()
        for _ in range(tasks):
            state._dequeue()
        return state

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.integers(0, 5)),
                st.tuples(st.just("pop"), st.just(0)),
            ),
            max_size=40,
        )
    )
    def test_fifo_matches_reference_list(self, ops):
        state = self.empty_queue(6)
        reference: list[int] = []
        for op, value in ops:
            if op == "push":
                if value in reference:
                    with pytest.raises(UsageError):
                        state._enqueue(value)
                else:
                    state._enqueue(value)
                    reference.append(value)
            else:
                if not reference:
                    with pytest.raises(UsageError):
                        state._dequeue()
                else:
                    assert state._dequeue() == reference.pop(0)
            assert run_queue(state) == tuple(reference)
            in_queue = [state.buf[task_cell(state, t, T_IN_QUEUE)] == 1 for t in range(6)]
            assert in_queue == [t in reference for t in range(6)]

    def test_duplicate_rejected(self):
        state = self.empty_queue(2)
        state._enqueue(1)
        with pytest.raises(UsageError):
            state._enqueue(1)
        assert run_queue(state) == (1,)

    def test_over_capacity_rejected(self):
        state = self.empty_queue(2)
        state._enqueue(0)
        state._enqueue(1)
        before = snapshot(state)
        with pytest.raises(UsageError):
            state._enqueue(2)  # no such task: the queue has no room left
        assert snapshot(state) == before


class TestConfigValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelConfig(task_plan=())

    def test_negative_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelConfig(max_waits_per_task=-1)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelConfig(worker_count=0)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            KernelConfig(faults=frozenset({"bogus", "skip-resume-state"}))


@pytest.mark.parametrize("plan", [(H, L, L), (H, H)], ids=["H,L,L", "H,H"])
def test_the_configs_of_a_plan_share_one_layout(plan):
    # the toggles are state cells that initial_state sets, so the 32
    # fix/fault configs of a plan compile to one Layout, whose boot holds
    # every toggle off
    configs = matrix_configs(config(task_plan=plan))
    layout = layout_for(configs[0])
    assert len(configs) == 32 and all(layout_for(c) is layout for c in configs)
    assert list(layout.boot[FIX_WAIT:IN_FLIGHT]) == [0] * 5
    rest = initial_state(configs[0]).buf[IN_FLIGHT:]
    for c in configs:
        buf = initial_state(c).buf
        assert list(buf[FIX_WAIT:IN_FLIGHT]) == [
            c.fix_wait_need_sched, c.fix_preempt_need_sched,
            "enqueue-before-state" in c.faults, "skip-running-check" in c.faults,
            "skip-resume-state" in c.faults]
        assert buf[IN_FLIGHT:] == rest
