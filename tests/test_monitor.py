"""Monitor DFA tests: table contents, violation reporting, and agreement
with a brute-force fold over the raw triple set."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from schedcheck.monitor import (
    Base,
    Event,
    Flag,
    INIT,
    MonitorRegistry,
    MonitorState,
    TaskMonitor,
    TransitionTable,
    default_table,
    format_transition,
    mstate,
)

EVENTS = list(Event)


def fold_events(table: TransitionTable, events: list[Event]):
    """Independent oracle: run the event sequence by scanning the raw triple
    tuple for each step, with no index structure.

    Returns ("ok", final_state) or ("violation", index, state_at_violation).
    """
    current = table.initial
    for i, event in enumerate(events):
        hits = [dst for (src, ev, dst) in table.triples if src == current and ev == event]
        if not hits:
            return ("violation", i, current)
        assert len(hits) == 1
        current = hits[0]
    return ("ok", current)


def run_monitor(table: TransitionTable, events: list[Event]):
    """Same sequence through the monitor's own stepper."""
    mon = TaskMonitor(table)
    for i, event in enumerate(events):
        violation = mon.next(event)
        if violation is not None:
            return ("violation", i, violation.current_state)
    return ("ok", mon.current)


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
            assert src.base not in (Base.TERMINATED, Base.PANICKED)

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
                    (running, Event.PANIC, mstate(Base.PANICKED)),
                    (running, Event.PANIC, mstate(Base.TERMINATED)),
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
        mon = TaskMonitor(default_table())
        for ev in (Event.SPAWN, Event.WAKE, Event.GET_NEXT):
            assert mon.next(ev) is None
        assert mon.current == expected[1]

    def test_getnext_while_running_violates(self):
        mon = TaskMonitor(default_table())
        for ev in (Event.SPAWN, Event.WAKE, Event.GET_NEXT):
            mon.next(ev)
        violation = mon.next(Event.GET_NEXT)
        assert violation is not None
        assert str(violation.current_state) == "Running(false)"
        assert violation.symbol is Event.GET_NEXT
        assert "current state: Running(false)" in violation.describe()
        assert "symbol: GetNext" in violation.describe()

    def test_violation_leaves_monitor_unchanged(self):
        mon = TaskMonitor(default_table())
        mon.next(Event.SPAWN)
        before_state, before_hist = mon.current, mon.history
        assert mon.next(Event.PREEMPT) is not None
        assert mon.current == before_state
        assert mon.history == before_hist

    def test_terminal_state_rejects_everything(self):
        for terminal in (Base.TERMINATED, Base.PANICKED):
            for event in EVENTS:
                mon = TaskMonitor(default_table(), current=mstate(terminal))
                assert mon.next(event) is not None

    def test_violation_carries_full_history(self):
        mon = TaskMonitor(default_table())
        mon.next(Event.SPAWN)
        mon.next(Event.WAKE)
        violation = mon.next(Event.PREEMPT)
        assert violation is not None
        assert [ev for (_, ev, _) in violation.history] == [Event.SPAWN, Event.WAKE]


class TestOracleEquivalence:
    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(EVENTS), max_size=20))
    def test_stepper_agrees_with_fold(self, events):
        assert run_monitor(default_table(), events) == fold_events(
            default_table(), events
        )

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(EVENTS), max_size=20))
    def test_history_replays_to_current(self, events):
        table = default_table()
        mon = TaskMonitor(table)
        for event in events:
            mon.next(event)
        current = table.initial
        targets = transitions(table)
        for src, ev, dst in mon.history:
            assert src == current
            assert targets.get((src, ev)) == dst
            current = dst
        assert current == mon.current

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(EVENTS), max_size=20))
    def test_clone_is_independent(self, events):
        mon = TaskMonitor(default_table())
        mon.next(Event.SPAWN)
        fork = mon.clone()
        for event in events:
            fork.next(event)
        assert mon.current == mstate(Base.WAITING, False)
        assert len(mon.history) == 1


class TestFlagDiscipline:
    def test_reachable_terminal_states_use_dont_care(self):
        for _, _, dst in default_table().triples:
            if dst.base in (Base.TERMINATED, Base.PANICKED, Base.INIT):
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
        reg = MonitorRegistry()
        mon = reg.register(0)
        assert mon.current == INIT
        assert 0 in reg and len(reg) == 1

    def test_register_then_spawn_lands_in_waiting(self):
        expected = fold_events(default_table(), [Event.SPAWN])
        assert expected[0] == "ok"
        reg = MonitorRegistry()
        reg.register(0)
        violation, line = reg.fire(0, Event.SPAWN)
        assert violation is None
        assert reg.get(0).current == expected[1]
        assert line == "task=0 Init(*) -- Spawn --> Waiting(false)"

    def test_duplicate_registration_rejected(self):
        reg = MonitorRegistry()
        reg.register(0)
        with pytest.raises(ValueError):
            reg.register(0)

    def test_fire_reports_violation_with_task_id(self):
        reg = MonitorRegistry()
        reg.register(3)
        violation, _ = reg.fire(3, Event.PREEMPT)
        assert violation is not None and violation.task == 3

    def test_clone_isolates_monitors(self):
        reg = MonitorRegistry()
        reg.register(0)
        fork = reg.clone()
        fork.fire(0, Event.SPAWN)
        assert reg.get(0).current == INIT
        assert fork.get(0).current == mstate(Base.WAITING, False)


class TestFormatting:
    def test_line_shape(self):
        line = format_transition(
            1, mstate(Base.RUNNING, False), Event.POLL_PENDING, mstate(Base.WAITING, False)
        )
        assert line == "task=1 Running(false) -- PollPending --> Waiting(false)"

    def test_dont_care_renders_star(self):
        assert str(mstate(Base.TERMINATED)) == "Terminated(*)"

    def test_formatting_is_stable(self):
        args = (2, mstate(Base.RUNNING, True), Event.PREEMPT, mstate(Base.PREEMPTED, True))
        assert format_transition(*args) == format_transition(*args)
