"""Per-task DFA runtime monitors over (task state, need_sched flag).

Each spawned task gets its own monitor, and all share one transition
table. Scheduler hooks feed events; an event with no defined transition
yields a violation report carrying the task, its current state and the
offending symbol, and every event gives its code in the table, which
`TransitionTable.line` renders as one line, so a trace's lines list each
task's transitions. A registry keeps each monitor's current state as a
small-int code in the kernel state's buffer, beside the state's own fields,
so a cloned state's monitors step independently of the original's.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cache


class Coded(Enum):
    """An enum whose members also carry `code`, their index in definition
    order, so that a flat state buffer can store them as small ints."""

    def __init__(self, *_) -> None:
        self.code = len(type(self)._member_map_)


class Event(Coded):
    SPAWN = "Spawn"
    WAKE = "Wake"
    SET_NEED_SCHED = "SetNeedSched"
    GET_NEXT = "GetNext"
    POLL_PENDING = "PollPending"
    POLL_READY = "PollReady"
    PREEMPT = "Preempt"

    def __str__(self) -> str:
        return self.value


class Base(Enum):
    """Base component of a monitor state.

    INIT is a synthetic pre-spawn state; the rest mirror task states.
    """

    INIT = "Init"
    RUNNABLE = "Runnable"
    RUNNING = "Running"
    WAITING = "Waiting"
    PREEMPTED = "Preempted"
    TERMINATED = "Terminated"


class Flag(Enum):
    FALSE = "false"
    TRUE = "true"
    DONT_CARE = "*"


# Bases whose flag carries no information (rendered as "*").
_DONT_CARE_BASES = frozenset({Base.INIT, Base.TERMINATED})


@dataclass(frozen=True)
class MonitorState:
    base: Base
    flag: Flag

    def __post_init__(self) -> None:
        if (self.flag is Flag.DONT_CARE) != (self.base in _DONT_CARE_BASES):
            raise ValueError(f"flag {self.flag} invalid for base {self.base}")

    def __str__(self) -> str:
        return f"{self.base.value}({self.flag.value})"


def mstate(base: Base, flag: bool | None = None) -> MonitorState:
    """Build a MonitorState, inferring don't-care for terminal/init bases."""
    if base in _DONT_CARE_BASES:
        return MonitorState(base, Flag.DONT_CARE)
    if flag is None:
        raise ValueError(f"base {base} needs a concrete flag")
    return MonitorState(base, Flag.TRUE if flag else Flag.FALSE)


INIT = mstate(Base.INIT)

# Every valid monitor state, indexed by its code; code 0 marks a task whose
# monitor is not registered.
STATES: tuple[MonitorState | None, ...] = (None,) + tuple(
    mstate(b, f)
    for b in Base
    for f in ((None,) if b in _DONT_CARE_BASES else (False, True))
)
STATE_CODES = {s: code for code, s in enumerate(STATES) if s is not None}
EVENT_COUNT = len(Event)


@dataclass(frozen=True)
class MonitorViolation:
    """Undefined transition: the monitor stayed put and reports context."""

    current_state: MonitorState
    symbol: Event
    task: int

    def describe(self) -> str:
        return (
            f"invalid transition: current state: {self.current_state}, "
            f"symbol: {self.symbol}"
        )


class TransitionTable:
    """Deterministic transition relation as (source, event, target) triples."""

    def __init__(self, triples: tuple[tuple[MonitorState, Event, MonitorState], ...]) -> None:
        index: dict[tuple[MonitorState, Event], MonitorState] = {}
        for src, ev, dst in triples:
            key = (src, ev)
            if key in index:
                raise ValueError(f"nondeterministic table: duplicate {src} --{ev}-->")
            if src.base is Base.TERMINATED:
                raise ValueError(f"absorbing state {src} must have no outgoing triples")
            index[key] = dst
        self.triples = triples
        # Flat transition function over codes, at src code * EVENT_COUNT
        # + event code: the target code (0: undefined), and the text of the
        # code's line: its transition, or the violation of an undefined one.
        self.targets = [0] * (len(STATES) * EVENT_COUNT)
        for (src, ev), dst in index.items():
            self.targets[STATE_CODES[src] * EVENT_COUNT + ev.code] = STATE_CODES[dst]
        self.labels = [f" {src} -- {ev} --> {index[src, ev]}" if (src, ev) in index
                       else f" {MonitorViolation(src, ev, -1).describe()}"
                       for src in STATES for ev in Event]

    def line(self, task: int, code: int) -> str:
        """Task `task`'s trace line for the event at `code`."""
        return f"task={task}{self.labels[code]}"


@cache
def default_table() -> TransitionTable:
    """The task life-cycle DFA: states are (base, need_sched) pairs.

    Spawn lands in Waiting(false) and the spawn hook's immediate wake
    moves it on to Runnable(false). SetNeedSched records a wake or a
    preemption decision hitting a running task; Preempt is only valid
    once the flag is set, so a preempted task is Preempted(true), and
    resuming it clears the flag. Every source is Init or some target.
    """
    s = mstate
    B = Base
    triples = (
        (INIT, Event.SPAWN, s(B.WAITING, False)),
        (s(B.WAITING, False), Event.WAKE, s(B.RUNNABLE, False)),
        (s(B.RUNNABLE, False), Event.GET_NEXT, s(B.RUNNING, False)),
        (s(B.RUNNING, False), Event.POLL_PENDING, s(B.WAITING, False)),
        (s(B.RUNNING, False), Event.SET_NEED_SCHED, s(B.RUNNING, True)),
        (s(B.RUNNING, True), Event.SET_NEED_SCHED, s(B.RUNNING, True)),
        (s(B.RUNNING, True), Event.POLL_PENDING, s(B.RUNNABLE, False)),
        (s(B.RUNNING, True), Event.PREEMPT, s(B.PREEMPTED, True)),
        (s(B.RUNNING, False), Event.POLL_READY, s(B.TERMINATED)),
        (s(B.RUNNING, True), Event.POLL_READY, s(B.TERMINATED)),
        (s(B.PREEMPTED, True), Event.GET_NEXT, s(B.RUNNING, False)),
    )
    return TransitionTable(triples)


class MonitorRegistry:
    """task id -> current monitor state, as one code per task in a kernel
    state's buffer `buf`, task t's at offset cells[t] (code 0: not
    registered)."""

    __slots__ = ("table", "buf", "cells")

    def __init__(self, table: TransitionTable, buf: array, cells: Sequence[int]) -> None:
        self.table = table
        self.buf = buf
        self.cells = cells

    def register(self, task: int) -> None:
        at = self.cells[task]
        if self.buf[at]:
            raise ValueError(f"task {task} already registered")
        self.buf[at] = STATE_CODES[INIT]

    def current(self, task: int) -> MonitorState | None:
        """The task's monitor state; None before it is registered."""
        return STATES[self.buf[self.cells[task]]]

    def fire(self, task: int, event: Event) -> tuple[MonitorViolation | None, int]:
        """Feed one event; return (violation-or-None, the event's code in the
        table, which `TransitionTable.line` renders)."""
        at = self.cells[task]
        src = self.buf[at]
        if not src:
            raise KeyError(task)
        code = src * EVENT_COUNT + event.code
        dst = self.table.targets[code]
        if not dst:
            return MonitorViolation(STATES[src], event, task), code
        self.buf[at] = dst
        return None, code
