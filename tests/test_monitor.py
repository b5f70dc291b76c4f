"""Monitor DFA tests: table contents, violation reporting, and agreement
with a brute-force fold over the raw triple set."""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from schedcheck.monitor import (
    Base,
    Event,
    Flag,
    INIT,
    STATE_CODES,
    MonitorRegistry,
    MonitorState,
    TransitionTable,
    default_table,
    mstate,
)

EVENTS = list(Event)


def registry(tasks: int = 1) -> MonitorRegistry:
    """A registry over a buffer of its own, laid out as a kernel state's
    monitor cells: one code per task, none registered."""
    return MonitorRegistry(default_table(), array("b", [0]) * tasks, range(tasks))


def monitor() -> MonitorRegistry:
    """A one-task registry with task 0 registered, at Init."""
    reg = registry()
    reg.register(0)
    return reg


def fold_events(table: TransitionTable, events: list[Event]):
    """Independent oracle: run the event sequence by scanning the raw triple
    tuple for each step, with no index structure.

    Returns ("ok", final_state) or ("violation", index, state_at_violation).
    """
    current = INIT
    for i, event in enumerate(events):
        hits = [dst for (src, ev, dst) in table.triples if src == current and ev == event]
        if not hits:
            return ("violation", i, current)
        assert len(hits) == 1
        current = hits[0]
    return ("ok", current)


def run_monitor(table: TransitionTable, events: list[Event]):
    """Same sequence through the registry's own stepper."""
    reg = MonitorRegistry(table, array("b", [0]), (0,))
    reg.register(0)
    for i, event in enumerate(events):
        violation, _ = reg.fire(0, event)
        if violation is not None:
            return ("violation", i, violation.current_state)
    return ("ok", reg.current(0))


def transitions(table: TransitionTable) -> dict:
    """The table's (source, event) -> target map, built from its triples."""
    return {(src, ev): dst for src, ev, dst in table.triples}


class TestDefaultTable:
    def test_contains_flag_set_transition(self):
        targets = transitions(default_table())
        assert targets[mstate(Base.RUNNING, False), Event.SET_NEED_SCHED] == mstate(
            Base.RUNNING, True
        )

    def test_contains_preempt_transition(self):
        targets = transitions(default_table())
        assert targets[mstate(Base.RUNNING, True), Event.PREEMPT] == mstate(
            Base.PREEMPTED, True
        )

    def test_terminal_states_have_no_outgoing_triples(self):
        for src, _, _ in default_table().triples:
            assert src.base is not Base.TERMINATED

    def test_every_source_is_init_or_a_target(self):
        # a row whose source no triple enters can never fire
        triples = default_table().triples
        targets = {INIT} | {dst for _, _, dst in triples}
        assert [(src, ev) for src, ev, _ in triples if src not in targets] == []

    def test_table_is_deterministic(self):
        seen = set()
        for src, ev, _ in default_table().triples:
            assert (src, ev) not in seen
            seen.add((src, ev))

    def test_nondeterministic_table_rejected(self):
        running = mstate(Base.RUNNING, False)
        with pytest.raises(ValueError):
            TransitionTable(
                (
                    (running, Event.POLL_READY, mstate(Base.TERMINATED)),
                    (running, Event.POLL_READY, mstate(Base.WAITING, False)),
                )
            )

    def test_outgoing_from_terminal_rejected(self):
        with pytest.raises(ValueError):
            TransitionTable(
                ((mstate(Base.TERMINATED), Event.WAKE, mstate(Base.TERMINATED)),)
            )


class TestNext:
    def test_getnext_from_runnable(self):
        # expected value computed by the fold oracle
        expected = fold_events(default_table(), [Event.SPAWN, Event.WAKE, Event.GET_NEXT])
        assert expected == ("ok", mstate(Base.RUNNING, False))
        mon = monitor()
        for ev in (Event.SPAWN, Event.WAKE, Event.GET_NEXT):
            assert mon.fire(0, ev)[0] is None
        assert mon.current(0) == expected[1]

    def test_getnext_while_running_violates(self):
        mon = monitor()
        for ev in (Event.SPAWN, Event.WAKE, Event.GET_NEXT):
            mon.fire(0, ev)
        violation, code = mon.fire(0, Event.GET_NEXT)
        assert violation is not None
        assert mon.table.line(0, code) == "task=0 invalid transition: current state: Running(false), symbol: GetNext"
        assert str(violation.current_state) == "Running(false)"
        assert violation.symbol is Event.GET_NEXT
        assert "current state: Running(false)" in violation.describe()
        assert "symbol: GetNext" in violation.describe()

    def test_violation_leaves_monitor_unchanged(self):
        mon = monitor()
        mon.fire(0, Event.SPAWN)
        before_state, before_buf = mon.current(0), mon.buf[:]
        assert mon.fire(0, Event.PREEMPT)[0] is not None
        assert mon.current(0) == before_state
        assert mon.buf == before_buf

    def test_terminal_state_rejects_everything(self):
        for event in EVENTS:
            mon = monitor()
            mon.buf[0] = STATE_CODES[mstate(Base.TERMINATED)]
            assert mon.fire(0, event)[0] is not None
            assert mon.current(0) == mstate(Base.TERMINATED)


class TestOracleEquivalence:
    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(EVENTS), max_size=20))
    def test_stepper_agrees_with_fold(self, events):
        assert run_monitor(default_table(), events) == fold_events(
            default_table(), events
        )

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(EVENTS), max_size=20))
    def test_lines_replay_to_current(self, events):
        # the lines of the transitions taken list all that the task went through
        mon = monitor()
        current = INIT
        targets = transitions(default_table())
        for event in events:
            violation, code = mon.fire(0, event)
            if violation is None:
                dst = targets[current, event]
                assert mon.table.line(0, code) == f"task=0 {current} -- {event} --> {dst}"
                current = dst
        assert current == mon.current(0)


class TestFlagDiscipline:
    def test_reachable_terminal_states_use_dont_care(self):
        for _, _, dst in default_table().triples:
            if dst.base in (Base.TERMINATED, Base.INIT):
                assert dst.flag is Flag.DONT_CARE
            else:
                assert dst.flag in (Flag.TRUE, Flag.FALSE)

    def test_concrete_flag_on_terminal_rejected(self):
        with pytest.raises(ValueError):
            MonitorState(Base.TERMINATED, Flag.FALSE)
        with pytest.raises(ValueError):
            MonitorState(Base.RUNNING, Flag.DONT_CARE)


class TestRegistry:
    def test_register_starts_at_init(self):
        reg = registry(2)
        assert reg.register(0) is None
        assert reg.current(0) == INIT
        assert reg.current(1) is None

    def test_register_then_spawn_lands_in_waiting(self):
        expected = fold_events(default_table(), [Event.SPAWN])
        assert expected[0] == "ok"
        reg = monitor()
        violation, code = reg.fire(0, Event.SPAWN)
        assert violation is None
        assert reg.current(0) == expected[1]
        assert reg.table.line(0, code) == "task=0 Init(*) -- Spawn --> Waiting(false)"

    def test_duplicate_registration_rejected(self):
        reg = monitor()
        with pytest.raises(ValueError):
            reg.register(0)

    def test_fire_reports_violation_with_task_id(self):
        reg = registry(4)
        reg.register(3)
        violation, _ = reg.fire(3, Event.PREEMPT)
        assert violation is not None and violation.task == 3

    def test_fire_on_unregistered_task_rejected(self):
        with pytest.raises(KeyError):
            registry().fire(0, Event.SPAWN)


class TestFormatting:
    def test_line_shape(self):
        reg = monitor()
        for event in (Event.SPAWN, Event.WAKE, Event.GET_NEXT):
            reg.fire(0, event)
        _, code = reg.fire(0, Event.POLL_PENDING)
        assert reg.table.line(0, code) == "task=0 Running(false) -- PollPending --> Waiting(false)"

    def test_dont_care_renders_star(self):
        assert str(mstate(Base.TERMINATED)) == "Terminated(*)"
