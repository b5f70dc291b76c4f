"""Executable semantics of a preemptive async-task scheduler.

One primary core drives timer wakeups and round-robin preemption
decisions; worker cores fetch tasks from a shared FIFO run queue and
poll them. Preemption is a two-phase protocol (decide, then IPI) with a
per-task need_sched flag; a preempted task's progress, its pc and
whether it was mid-wait, stays in its own record, flagged as a saved
context until whichever core resumes it.

Every shared-state mutation here is one explicitly atomic step, so an
external driver can interleave steps from different virtual processes.
Compound queue/optional operations are atomic; the deliberate splits are
(register timer / become waiting), (decide / send IPI), and
(set state / enqueue) inside IPI handling, because the interesting races
live in exactly those windows. Fix and fault toggles select buggy or
fixed variants of the wake and preemption protocols. They live in the
state's buffer, as cells that boot sets from the config and no step
writes, so an operation reads its toggles as it reads any other cell.

There is no real concurrency: instances are plain values, safe to run in
parallel OS processes with nothing shared. A state's whole value is one
flat array of small ints (see Layout), so cloning a state is one array
copy and the array's bytes are its canonical encoding.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, permutations, product
from operator import eq, ge, gt, itemgetter
from sys import byteorder

from .monitor import (
    STATES,
    Coded,
    Event,
    MonitorRegistry,
    MonitorViolation,
    default_table,
)


class ConfigurationError(ValueError):
    """Bad configuration or reference to a task that does not exist."""


class UsageError(RuntimeError):
    """An operation was invoked outside its precondition."""


class TaskState(Coded):
    RUNNABLE = "Runnable"
    RUNNING = "Running"
    WAITING = "Waiting"
    PREEMPTED = "Preempted"
    TERMINATED = "Terminated"


class TaskKind(Enum):
    LIGHT = "L"
    HEAVY = "H"


class Action(Enum):
    """Script actions a task performs when polled."""

    COMPUTE = "Compute"
    REGISTER_TIMER_AND_PEND = "RegisterTimerAndPend"
    FINISH = "Finish"


# Fault toggles, each re-opening a race window that the protocol closes:
# enqueue a preempted task before setting its state, resume a preempted
# task without setting it Running, fetch a queued task that still runs.
FAULTS = frozenset({"enqueue-before-state", "skip-resume-state", "skip-running-check"})


@dataclass(frozen=True)
class KernelConfig:
    """Workload shape plus the fix toggles and the faults under test."""

    worker_count: int = 2
    task_plan: tuple[TaskKind, ...] = (TaskKind.HEAVY, TaskKind.LIGHT, TaskKind.LIGHT)
    fix_wait_need_sched: bool = True
    fix_preempt_need_sched: bool = True
    faults: frozenset[str] = frozenset()
    max_waits_per_task: int = 1
    max_preemptions_per_task: int = 1

    def __post_init__(self) -> None:
        if self.worker_count < 1:
            raise ConfigurationError("worker_count must be >= 1")
        if not self.task_plan:
            raise ConfigurationError("task_plan must be non-empty")
        if self.max_waits_per_task < 0 or self.max_preemptions_per_task < 0:
            raise ConfigurationError("bounds must be >= 0")
        if unknown := self.faults - FAULTS:
            raise ConfigurationError(f"unknown faults {sorted(unknown)}")


def script_for(kind: TaskKind, config: KernelConfig) -> tuple[Action, ...]:
    """Derive a task's action script from its kind and the wait bound.

    Heavy tasks alternate compute with timed waits; light tasks just
    compute twice and finish, and never wait.
    """
    if kind is TaskKind.LIGHT:
        return (Action.COMPUTE, Action.COMPUTE, Action.FINISH)
    steps: list[Action] = [Action.COMPUTE]
    for _ in range(config.max_waits_per_task):
        steps.append(Action.REGISTER_TIMER_AND_PEND)
        steps.append(Action.COMPUTE)
    steps.append(Action.FINISH)
    return tuple(steps)


# -- flat state layout ------------------------------------------------
#
# The whole value of a KernelState is one array of small signed ints, laid
# out by a Layout computed once per plan; -1 stands for "none" (no task,
# IPI, phase or decision). Only the step bookkeeping is kept beside the
# array, so copying the array copies the state and its bytes are the
# state's visited-set key.

# Global fields, then the run queue: its length, then its task ids. The
# first five are the fix and fault toggles, which initial_state sets from
# the config and no step writes.
# Settling reads SKIP_RESUME_STATE alone of them (Layout.settle_offsets).
(FIX_WAIT, FIX_PREEMPT, ENQUEUE_BEFORE_STATE, SKIP_RUNNING_CHECK, SKIP_RESUME_STATE,
 IN_FLIGHT, SPAWN_CURSOR, QUEUE_LEN, QUEUE) = range(9)
# Fields of a task record. The first four are the ones settling a state
# reads (see Layout.settle_offsets). T_TIMER flags the task's pending timer
# entry. T_MONITOR is the code of the task's monitor state (0 before the
# task registers). T_SAVED is 1 from a preemption's save of the task's
# context until a resume. The context is T_PC and T_PENDING_WAIT, which no
# step changes in between: the task's core is in its IPI handler, which
# masks the poll, and a fetch by any core is itself the resume. The flag is
# not a task state: under enqueue-before-state a queued task with a saved
# context can still be Running. A record holds no task id, so it moves
# whole when tasks are renamed (symmetric_key).
(T_STATE, T_IN_QUEUE, T_PREEMPTIONS, T_TIMER, T_MONITOR, T_NEED_SCHED,
 T_SAVED, T_PC, T_PENDING_WAIT, TASK_WIDTH) = range(10)
# Fields of a core record; C_DECISION is the task observed by a preemption
# decision aimed at the core. No field names a core.
C_CURRENT, C_PENDING_IPI, C_IPI_PHASE, C_DECISION, CORE_WIDTH = range(5)

# Codes of task states, and of the core cells that hold no task id, as the
# array stores them. The latter are negative, with -1 for none, so that no
# core cell but C_CURRENT and C_DECISION holds a value in the range of
# task ids. C_PENDING_IPI is a flag: PENDING from send_ipi until receipt.
# No step reads the task the decision observed once the IPI is sent, so
# the flag does not keep it. C_IPI_PHASE is the phase of the core's
# preemption handler.
RUNNABLE, RUNNING, WAITING, PREEMPTED, TERMINATED = (s.code for s in TaskState)
PENDING = -2
CTX_SAVED, STATED, ENQUEUED = -2, -3, -4

# Array typecodes by the largest value they hold. None is wider than 2 bytes:
# a heavy script holds 2 + 2 x max_waits actions, so a wider bound would
# build a script of billions of actions before any check could refuse it.
_TYPECODES = (("b", 2**7 - 1), ("h", 2**15 - 1))


class Layout:
    """What a plan compiles to: the record offsets of its states, the buffer
    at boot with every toggle off, and the tables derived from them. A plan
    is the task kinds, the worker count and the two bounds, so the 32
    fix/fault configs of a plan share one Layout (`layout_for`).

    The array's typecode is the narrowest that holds the plan's largest
    value: task and core counts, script positions, the preemption bound,
    and monitor state codes. Signed, so that a budget overrun below zero
    stays visible to the invariant check."""

    def __init__(self, config: KernelConfig) -> None:
        n = len(config.task_plan)
        self.task_count = n
        self.core_count = config.worker_count + 1
        # No script is longer than 2 + 2 x waits, a heavy one's length (a light
        # one's 3 is below len(STATES)). The typecode is picked before any
        # script is built, so an oversized bound stops here.
        largest = max(
            n, self.core_count, len(STATES),
            2 + 2 * config.max_waits_per_task, config.max_preemptions_per_task,
        )
        typecode = next((tc for tc, top in _TYPECODES if largest < top), None)
        if typecode is None:
            raise ConfigurationError(f"bounds too large for the state layout ({largest})")
        self.kinds = "".join(k.value for k in config.task_plan)
        self.heavy = tuple(k is TaskKind.HEAVY for k in config.task_plan)
        self.preemptions = config.max_preemptions_per_task
        self.scripts = tuple(script_for(k, config) for k in config.task_plan)
        self.tasks = QUEUE + n
        self.cores = self.tasks + n * TASK_WIDTH
        end = self.cores + self.core_count * CORE_WIDTH
        boot = array(typecode, [0]) * end
        boot[self.cores:] = array(typecode, [-1]) * (end - self.cores)
        self.boot = boot
        self.monitor_cells = tuple(range(self.tasks + T_MONITOR, self.cores, TASK_WIDTH))
        # The cells that explorer._settle reads: all but four toggles, the
        # monitors, need_sched, the saved flag, pc and the pending wait.
        self.settle_offsets = (
            *range(SKIP_RESUME_STATE, self.tasks),  # one toggle, the globals, the queue
            *(at + f for at in range(self.tasks, self.cores, TASK_WIDTH)
              for f in (T_STATE, T_IN_QUEUE, T_PREEMPTIONS, T_TIMER)),
            *range(self.cores, end),
        )
        # Per cell, the bits of its bytes in a state's number (its bytes
        # `int.from_bytes` in native order): a step memo's keep mask clears
        # those of the cells the step wrote (explorer._learn).
        size = boot.itemsize
        self.cell_masks = tuple(
            int.from_bytes(bytes(at * size) + b"\xff" * size + bytes((end - at - 1) * size),
                           byteorder) for at in range(end))
        # The settle memo keys a state by its number masked to the settle
        # cells; the cell masks are disjoint, so their sum is their OR.
        self.settle_mask = sum(self.cell_masks[at] for at in self.settle_offsets)
        # symmetric_key's cut of a state's bytes into the head, up to the
        # primary core's record, and the records of workers 1..w.
        record = CORE_WIDTH * size
        cuts = (0, *range(self.cores * size + record, end * size + 1, record))
        self.worker_cut = itemgetter(*map(slice, cuts, cuts[1:]))
        # symmetric_key's renaming of the spawned tasks of each kind, in 'b'
        # layouts only, where a byte is a cell, so a byte `translate` renames
        # task ids.
        self.renames = None
        if typecode == "b":
            self.record_slices, self.renames = _task_renames(self.heavy)
        # The steps explorer._examine hands out, one table per process kind:
        # timer variants, preempter variants, the spawner, and the workers.
        self.steps = (tuple(("PrimaryTimer", None, i) for i in range(n)),
                      tuple(("PrimaryPreempter", None, i) for i in range(self.core_count)),
                      ("Spawner", None, 0),
                      tuple(("Worker", core, 0) for core in range(1, self.core_count)))


def _task_renames(heavy: tuple[bool, ...]) -> tuple[tuple[slice, ...], tuple]:
    """The record slices of a 'b' layout of the plan whose kinds are
    `heavy`, and per spawn cursor, None when no kind has two spawned tasks,
    else (pairs, groups, renamings, swaps): `groups` holds the ids of each
    kind with two or more spawned tasks, `pairs(raw)` the records of each
    two consecutive ids of a group, one pair after another, and `renamings`
    and `swaps` are the caches of `_renamed` and `_least`. The fix and fault
    toggles change none of this, so the caches belong to the plan's one
    Layout, and every config of the plan shares them, as it shares
    `explore`'s step memos (`explorer._plan_memos`)."""
    tasks = QUEUE + len(heavy)
    record_slices = tuple(slice(at, at + TASK_WIDTH)
                          for at in range(tasks, tasks + len(heavy) * TASK_WIDTH, TASK_WIDTH))
    renames = []
    for spawned in range(len(heavy) + 1):
        groups = tuple(ids for kind in (True, False)
                       if len(ids := tuple(t for t in range(spawned) if heavy[t] is kind)) > 1)
        pairs = [record_slices[t] for ids in groups for pair in zip(ids, ids[1:]) for t in pair]
        renames.append(groups and (itemgetter(*pairs), groups, {}, {}) or None)
    return record_slices, tuple(renames)


_layouts: dict[tuple, Layout] = {}


def layout_for(config: KernelConfig) -> Layout:
    """The one Layout of the config's plan, built on the plan's first call."""
    plan = (config.task_plan, config.worker_count,
            config.max_waits_per_task, config.max_preemptions_per_task)
    if (layout := _layouts.get(plan)) is None:
        layout = _layouts[plan] = Layout(config)
    return layout


class KernelState:
    """The complete shared world, including the monitors observing it.

    `buf` holds the state's value (see Layout), and the operations read
    and write it by record offset. Beside `buf` is the step bookkeeping of
    the step just executed, kept unformatted: its label's template and
    arguments, and the (task, code) of each monitor event it fired, which
    only `step_label` and `step_lines` render. The first monitor violation
    of a step lands in `violation`.
    """

    __slots__ = ("layout", "buf", "monitors", "violation", "template", "args", "events")

    def __init__(self, layout: Layout, buf: array) -> None:
        self.layout = layout
        self.buf = buf
        self.monitors = MonitorRegistry(default_table(), buf, layout.monitor_cells)
        self.violation: MonitorViolation | None = None
        self.template, self.args = "", ()
        self.events: list[tuple[int, int]] = []

    # -- bookkeeping -------------------------------------------------

    def clone(self) -> KernelState:
        return KernelState(self.layout, self.buf[:])

    def begin_step(self, template: str, *args) -> None:
        self.template, self.args = template, args
        self.events = []
        self.violation = None

    @property
    def step_label(self) -> str:
        return self.template.format(*self.args)

    @property
    def step_lines(self) -> list[str]:
        line = self.monitors.table.line
        return [line(task, code) for task, code in self.events]

    @property
    def decision(self) -> tuple[int, int] | None:
        """(target core, observed task) of the recorded preemption decision."""
        buf, at = self.buf, self.layout.cores + C_DECISION
        for core in range(self.layout.core_count):
            if (task := buf[at + core * CORE_WIDTH]) >= 0:
                return core, task
        return None

    def fireable_timers(self, count: int | None = None) -> list[int]:
        """Pending timer entries, lowest task id first: the first `count` of
        them, or all, and no flag past them is read. Time is
        over-approximated, so any of them may fire at any moment."""
        buf, at = self.buf, self.layout.tasks + T_TIMER
        flags = (task for task in range(self.layout.task_count) if buf[at + task * TASK_WIDTH])
        return list(islice(flags, count))

    def _fire_event(self, task: int, event: Event) -> None:
        violation, code = self.monitors.fire(task, event)
        self.events.append((task, code))
        if violation is not None and self.violation is None:
            self.violation = violation

    def _worker(self, core_id: int) -> int:
        """Offset of worker core `core_id`'s record."""
        if not 0 < core_id < self.layout.core_count:
            raise UsageError(f"core {core_id} is not a worker")
        return self.layout.cores + core_id * CORE_WIDTH

    def _enqueue(self, task: int) -> None:
        """Append `task` to the run queue, a bounded FIFO without duplicates:
        its in_queue flag, which matches the queue, guards against one."""
        buf = self.buf
        length = buf[QUEUE_LEN]
        flag = self.layout.tasks + task * TASK_WIDTH + T_IN_QUEUE
        if buf[flag]:
            raise UsageError(f"task {task} already queued")
        if length >= self.layout.task_count:
            raise UsageError("run queue over capacity")
        buf[QUEUE + length] = task
        buf[QUEUE_LEN] = length + 1
        buf[flag] = 1

    def _dequeue(self) -> int:
        buf = self.buf
        length = buf[QUEUE_LEN]
        if not length:
            raise UsageError("run queue is empty")
        task = buf[QUEUE]
        buf[QUEUE:QUEUE + length - 1] = buf[QUEUE + 1:QUEUE + length]
        buf[QUEUE + length - 1] = 0
        buf[QUEUE_LEN] = length - 1
        buf[self.layout.tasks + task * TASK_WIDTH + T_IN_QUEUE] = 0
        return task

    # -- operations ---------------------------------------------------

    def spawn_next(self) -> int:
        """Create the next planned task and return its id; it is woken
        immediately, so it lands Runnable in the run queue."""
        buf, layout = self.buf, self.layout
        task = buf[SPAWN_CURSOR]
        if task >= layout.task_count:
            raise UsageError("every planned task is spawned")
        self.begin_step("spawn task {} ({})", task, layout.kinds[task])
        buf[SPAWN_CURSOR] = task + 1
        at = layout.tasks + task * TASK_WIDTH
        buf[at + T_STATE] = RUNNABLE
        if layout.heavy[task]:
            buf[at + T_PREEMPTIONS] = layout.preemptions
        self.monitors.register(task)
        self._fire_event(task, Event.SPAWN)
        self._enqueue(task)
        self._fire_event(task, Event.WAKE)
        return task

    def timer_fire(self, task: int) -> None:
        """Deliver the pending timed event of `task`, the timer callback's
        wake: enqueue a waiting task; with the wait fix, flag a running one;
        ignore a runnable or preempted one. A terminated task holds no
        pending timer (`reset_dead_fields`)."""
        buf = self.buf
        at = self.layout.tasks + task * TASK_WIDTH
        if not (0 <= task < self.layout.task_count and buf[at + T_TIMER]):
            if not self.fireable_timers(1):
                raise UsageError("no fireable timer entry")
            raise UsageError(f"timer entry for task {task} not fireable")
        self.begin_step("timer fire: wake task {}", task)
        buf[at + T_TIMER] = 0
        if buf[at + T_STATE] == WAITING:
            buf[at + T_STATE] = RUNNABLE
            self._enqueue(task)
            self._fire_event(task, Event.WAKE)
        elif buf[at + T_STATE] == RUNNING:
            if buf[FIX_WAIT]:
                buf[at + T_NEED_SCHED] = 1
                self._fire_event(task, Event.SET_NEED_SCHED)
            # without the fix the call is silently dropped
        # Runnable / Preempted: ignore

    def get_next_task(self, core_id: int) -> None:
        """Worker fetch: dequeue the head and start or resume it.

        A head still marked Running is re-enqueued at the back and
        skipped (no monitor event) unless the running check is disabled
        by fault toggle; a head with a saved context resumes where its
        preemption left it.
        """
        core = self._worker(core_id)
        buf = self.buf
        if buf[core + C_CURRENT] >= 0:
            raise UsageError(f"core {core_id} already runs task {buf[core + C_CURRENT]}")
        assert buf[core + C_PENDING_IPI] == -1, "fetch with an IPI pending"
        task = self._dequeue()
        at = self.layout.tasks + task * TASK_WIDTH
        if buf[at + T_STATE] == RUNNING and not buf[SKIP_RUNNING_CHECK]:
            self.begin_step("worker {}: task {} still running, requeued", core_id, task)
            self._enqueue(task)
            return
        if buf[at + T_SAVED]:
            self.begin_step("worker {}: resume task {} at pc {}", core_id, task, buf[at + T_PC])
            buf[at + T_SAVED] = 0
            buf[at + T_NEED_SCHED] = 0
            buf[core + C_CURRENT] = task
            if not buf[SKIP_RESUME_STATE]:
                buf[at + T_STATE] = RUNNING
                self._fire_event(task, Event.GET_NEXT)
            return
        self.begin_step("worker {}: start task {}", core_id, task)
        buf[at + T_STATE] = RUNNING
        buf[core + C_CURRENT] = task
        self._fire_event(task, Event.GET_NEXT)

    def poll_step(self, core_id: int) -> None:
        """Execute the current task's next atomic script step.

        RegisterTimerAndPend is two separate steps: first the timer
        registration, then the waiting transition, which re-enqueues
        immediately instead when need_sched was set in between.
        """
        core = self._worker(core_id)
        buf = self.buf
        task = buf[core + C_CURRENT]
        if task < 0:
            raise UsageError(f"core {core_id} has no current task")
        at = self.layout.tasks + task * TASK_WIDTH
        state = buf[at + T_STATE]
        if not (state == RUNNING or (state == PREEMPTED and buf[SKIP_RESUME_STATE])):
            raise UsageError(f"task {task} is not running (state {tuple(TaskState)[state].value})")

        if buf[at + T_PENDING_WAIT]:
            # second half of RegisterTimerAndPend
            buf[at + T_PENDING_WAIT] = 0
            buf[core + C_CURRENT] = -1
            fix = buf[FIX_WAIT]
            if fix and buf[at + T_NEED_SCHED]:
                self.begin_step("worker {}: task {} requeued (need_sched)", core_id, task)
                buf[at + T_NEED_SCHED] = 0
                buf[at + T_STATE] = RUNNABLE
                self._enqueue(task)
                self._fire_event(task, Event.POLL_PENDING)
            elif fix and not buf[at + T_TIMER]:
                # The wake already fired and was recorded in need_sched, but
                # a preemption consumed the flag in between (it is cleared on
                # resume). Complete the wait and re-deliver the wake at once,
                # or the task would sleep on a timer that is gone.
                self.begin_step(
                    "worker {}: task {} wait over (wake already delivered)", core_id, task)
                buf[at + T_STATE] = WAITING
                self._fire_event(task, Event.POLL_PENDING)
                buf[at + T_STATE] = RUNNABLE
                self._enqueue(task)
                self._fire_event(task, Event.WAKE)
            else:
                self.begin_step("worker {}: task {} enters waiting", core_id, task)
                buf[at + T_STATE] = WAITING
                self._fire_event(task, Event.POLL_PENDING)
            return

        pc = buf[at + T_PC]
        action = self.layout.scripts[task][pc]
        if action is Action.COMPUTE:
            self.begin_step("worker {}: task {} compute (pc {})", core_id, task, pc)
            buf[at + T_PC] = pc + 1
        elif action is Action.REGISTER_TIMER_AND_PEND:
            self.begin_step("worker {}: task {} registers timer", core_id, task)
            buf[at + T_TIMER] = 1
            buf[at + T_PC] = pc + 1
            buf[at + T_PENDING_WAIT] = 1
        else:  # Action.FINISH
            self.begin_step("worker {}: task {} finishes", core_id, task)
            buf[at + T_STATE] = TERMINATED
            reset_dead_fields(buf, at)
            buf[core + C_CURRENT] = -1
            self._fire_event(task, Event.POLL_READY)

    def preempt_candidates(self, count: int | None = None) -> list[int]:
        """Worker cores currently running a preemptible heavy task, lowest
        first: the first `count` of them, or all, and no core past them is
        read."""
        buf, layout = self.buf, self.layout
        out = []
        for core_id in range(1, layout.core_count):
            if len(out) == count:
                break
            task = buf[layout.cores + core_id * CORE_WIDTH + C_CURRENT]
            if task < 0 or not layout.heavy[task]:
                continue
            at = layout.tasks + task * TASK_WIDTH
            if buf[at + T_STATE] == RUNNING and buf[at + T_PREEMPTIONS] > 0:
                out.append(core_id)
        return out

    def preempt_decide(self, core_id: int) -> None:
        """Record a preemption decision for a core; with the preempt fix the
        observed task's need_sched is set now, ahead of any IPI."""
        buf, layout = self.buf, self.layout
        if buf[IN_FLIGHT]:
            raise UsageError("a preemption is already in flight")
        core = layout.cores + core_id * CORE_WIDTH
        task = buf[core + C_CURRENT] if 0 < core_id < layout.core_count else -1
        at = layout.tasks + task * TASK_WIDTH
        if task < 0 or not (
            layout.heavy[task] and buf[at + T_STATE] == RUNNING and buf[at + T_PREEMPTIONS] > 0
        ):
            raise UsageError(f"core {core_id} is not a preemption candidate")
        self.begin_step("preempt decide: core {} task {}", core_id, task)
        buf[core + C_DECISION] = task
        buf[IN_FLIGHT] = 1
        if buf[FIX_PREEMPT]:
            buf[at + T_NEED_SCHED] = 1
            self._fire_event(task, Event.SET_NEED_SCHED)

    def send_ipi(self) -> None:
        """Deliver the recorded decision to its target core; deliberately a
        separate step from the decision itself."""
        decision = self.decision
        if decision is None:
            raise UsageError("no preemption decision recorded")
        target, observed = decision
        buf = self.buf
        core = self.layout.cores + target * CORE_WIDTH
        if buf[core + C_PENDING_IPI] != -1:
            raise UsageError(f"core {target} already has a pending IPI")
        self.begin_step("send IPI to core {} (observed task {})", target, observed)
        buf[core + C_PENDING_IPI] = PENDING
        buf[core + C_DECISION] = -1

    def handle_ipi_step(self, core_id: int) -> None:
        """Run the core's next preemption-handler step.

        Receipt cancels outright when the core is idle or (with the
        preempt fix) when the current task's need_sched is clear.
        Otherwise the handler takes three steps: save context, then set
        state and enqueue as two separate steps whose order the
        enqueue-before-state fault flips. need_sched is not cleared
        here; it is cleared when the task resumes.
        """
        core = self._worker(core_id)
        buf = self.buf
        task = buf[core + C_CURRENT]
        phase = buf[core + C_IPI_PHASE]
        if phase == -1:
            if buf[core + C_PENDING_IPI] == -1:
                raise UsageError(f"core {core_id} has no pending IPI")
            buf[core + C_PENDING_IPI] = -1
            if task < 0:
                self.begin_step("core {}: IPI canceled (idle core)", core_id)
                buf[IN_FLIGHT] = 0
                return
            at = self.layout.tasks + task * TASK_WIDTH
            fix = buf[FIX_PREEMPT]
            if fix and not buf[at + T_NEED_SCHED]:
                self.begin_step("core {}: IPI canceled (task {} need_sched clear)", core_id, task)
                buf[IN_FLIGHT] = 0
                return
            if fix and buf[at + T_PREEMPTIONS] <= 0:
                # A stale decision can land on a flagged task whose preemption
                # budget is spent (the flag came from a wake); completing it
                # would overrun the bound, so the fixed protocol backs off.
                self.begin_step("core {}: IPI canceled (task {} budget spent)", core_id, task)
                buf[IN_FLIGHT] = 0
                return
            self.begin_step("core {}: save context of task {}", core_id, task)
            buf[at + T_SAVED] = 1
            buf[core + C_IPI_PHASE] = CTX_SAVED
            return

        assert task >= 0
        at = self.layout.tasks + task * TASK_WIDTH
        if phase == CTX_SAVED:
            if buf[ENQUEUE_BEFORE_STATE]:
                self.begin_step("core {}: enqueue task {} (before state)", core_id, task)
                self._enqueue(task)
                buf[core + C_IPI_PHASE] = ENQUEUED
            else:
                self.begin_step("core {}: task {} preempted", core_id, task)
                buf[at + T_STATE] = PREEMPTED
                self._fire_event(task, Event.PREEMPT)
                buf[core + C_IPI_PHASE] = STATED
            return
        if phase == STATED:
            self.begin_step("core {}: enqueue preempted task {}", core_id, task)
            self._enqueue(task)
        else:  # ENQUEUED: state assignment was deferred past the enqueue
            self.begin_step("core {}: task {} preempted (late state)", core_id, task)
            buf[at + T_STATE] = PREEMPTED
            self._fire_event(task, Event.PREEMPT)
        buf[at + T_PREEMPTIONS] -= 1
        buf[core + C_CURRENT] = -1
        buf[core + C_IPI_PHASE] = -1
        buf[IN_FLIGHT] = 0


def reset_dead_fields(buf: array, at: int) -> None:
    """Zero the need_sched flag, the pending timer and the preemption budget
    of the task record at `at`, which has just finished.

    No step reads them again: no operation and no part of the enabled steps
    reads a terminated task's need_sched flag or budget, and the invariants
    read only the budget, to check it is >= 0, which held before the task
    finished. A pending timer enables a timer step, but on a terminated task
    that step only cleared the timer. So states that differ only in these
    dead values are equivalent, and the reset gives them one buffer (Bozga
    et al., SAS 1999)."""
    buf[at + T_NEED_SCHED] = 0
    buf[at + T_TIMER] = 0
    buf[at + T_PREEMPTIONS] = 0


def initial_state(config: KernelConfig) -> KernelState:
    """Boot: cores as laid out, the config's fix and fault toggles set,
    then spawn the first planned task immediately (later entries are
    spawned by the spawner step)."""
    layout = layout_for(config)
    buf = layout.boot[:]
    buf[FIX_WAIT:IN_FLIGHT] = array(buf.typecode, (
        config.fix_wait_need_sched, config.fix_preempt_need_sched,
        *(fault in config.faults
          for fault in ("enqueue-before-state", "skip-running-check", "skip-resume-state"))))
    state = KernelState(layout, buf)
    state.spawn_next()
    state.begin_step("init")
    return state


def snapshot(state: KernelState) -> bytes:
    """Canonical, injective encoding of the full global state: the bytes of
    its buffer.

    Covers every task record with its saved context, queue order, timers,
    cores with their handler phases and pending decisions, the preemption
    flag, the spawn cursor, and each monitor's current state. Equal states
    encode equally; the transient step bookkeeping lives beside the buffer
    and is excluded.
    """
    return bytes(state.buf)


def symmetric_key(raw: bytes, layout: Layout) -> bytes:
    """Visited-set key of `explore` for a state's bytes `raw`: its canonical
    form under the renamings of the spawned tasks of each kind and of the
    identical worker cores. Every renaming of a state gets one key, and the
    key is the bytes of one of them.

    A labeling of the tasks gives each kind's ids to that kind's spawned
    records: the records move whole, and one `translate` table renames the
    ids in the live queue slots and in the core records, the only cells
    that hold task ids. Unspawned tasks keep their ids, because tasks spawn
    in id order. The workers are renamed by sorting the records of workers
    1..w as byte strings. Of the labelings that put each kind's records in
    descending byte order, the key is the one whose worker-sorted bytes are
    least (`_least`). Records that all differ admit one such labeling; when
    they are already in order and the workers sorted, the key is `raw`
    itself, the same object. A key is its own key, so `explore` looks a
    successor's bytes up before it computes their key, and expands the key.

    Searching one state per key is sound because both renamings are
    symmetries of the model. A task's script and bounds depend only on its
    kind, and no field of the state names a worker. No operation, enabled
    step, invariant or deadlock predicate names a fixed task or worker:
    each reads the ids that the state holds, and monitors are per task. A
    renaming reorders `fireable_timers`, so the timer variants of a state
    and of its renaming are numbered differently, but their successor sets
    are renamings of each other. A monitor violation's class names its
    task's kind, not its id (`explorer.violation_class`).

    'h' layouts, whose cells are two bytes, get the worker-only key: their
    tasks are never renamed, because byte `translate` cannot rename a
    two-byte id.
    """
    rename = layout.renames and layout.renames[raw[SPAWN_CURSOR]]
    if rename:
        records = rename[0](raw)
        pairs = iter(records)
        if not (gt(*records) if len(records) == 2 else all(map(gt, pairs, pairs))):
            return _least(raw, layout, records, *rename)
    return _sorted_workers(raw, layout)


def _sorted_workers(raw: bytes, layout: Layout) -> bytes:
    """`raw` with the records of workers 1..w sorted as byte strings; `raw`
    itself when they are in order."""
    cut = layout.worker_cut(raw)
    if len(cut) == 3:  # two workers: one compare
        head, first, second = cut
        return raw if first <= second else b"".join((head, second, first))
    head, *workers = cut
    ordered = sorted(workers)
    if ordered == workers:
        return raw
    return b"".join((head, *ordered))


def _least(raw: bytes, layout: Layout, records: tuple, pairs_of, groups: tuple,
           renamings: dict, swaps: dict) -> bytes:
    """The key of `raw`, some of whose same-kind records are out of order or
    tie. Records out of order are sorted first (`_renamed`). Then each run of
    tied records of a kind can take its ids in any order, and since the
    records are equal, none moves: those labelings differ only by a
    `translate` of the queue and core cells that permutes the ids of each
    run (`_swap_tables`). The key is the least worker-sorted image over
    them, and so it differs from `raw` only in the cells from the queue
    length to the last queue slot and in the core records. `swaps` keeps,
    per pattern of ties (a flag per pair of `pairs_of`), the tables and a
    memo from those cells of `raw` to those of its key. A state in order
    whose cells are least keeps its bytes object."""
    if len(records) == 2:  # one pair: records in order tie, out of order they differ
        ties = (records[0] == records[1],)
        if not ties[0]:
            return _sorted_workers(_renamed(raw, layout, groups, renamings), layout)
    else:
        pairs = iter(records)
        if not all(map(ge, pairs, pairs)):
            raw = _renamed(raw, layout, groups, renamings)
            records = pairs_of(raw)
        pairs = iter(records)
        ties = tuple(map(eq, pairs, pairs))
        if True not in ties:
            return _sorted_workers(raw, layout)
    if (swap := swaps.get(ties)) is None:
        swap = swaps[ties] = (_swap_tables(groups, ties), {})
    tables, leasts = swap
    tasks, cores = layout.tasks, layout.cores
    cells = raw[QUEUE_LEN:tasks] + raw[cores:]
    if (least := leasts.get(cells)) is None:
        live = QUEUE + raw[QUEUE_LEN]
        key = min(_sorted_workers(raw, layout), *(_sorted_workers(b"".join(
            (raw[:QUEUE], (renamed := raw.translate(table))[QUEUE:live], raw[live:cores],
             renamed[cores:])), layout) for table in tables))
        least = leasts[cells] = key[QUEUE_LEN:tasks] + key[cores:]
    if least == cells:
        return raw
    queue = tasks - QUEUE_LEN
    return b"".join((raw[:QUEUE_LEN], least[:queue], raw[tasks:cores], least[queue:]))


def _swap_tables(groups: tuple, ties: tuple[bool, ...]) -> tuple[bytes, ...]:
    """The `translate` tables that permute the ids of each run of tied
    records, one per permutation but the identity: one for a tied pair, 3! - 1
    for three tied records. `ties` flags each two consecutive ids of a
    group, as `symmetric_key` pairs them, whose records are equal."""
    flags, runs = iter(ties), []
    for ids in groups:
        runs.append([ids[0]])
        for t in ids[1:]:
            if next(flags):
                runs[-1].append(t)
            else:
                runs.append([t])
    ids = tuple(chain.from_iterable(runs))
    # the first order of the product leaves every run as it is
    return tuple(_table(dict(zip(chain.from_iterable(order), ids)))
                 for order in islice(product(*map(permutations, runs)), 1, None))


def _renamed(raw: bytes, layout: Layout, groups: tuple, renamings: dict) -> bytes:
    """`raw` with each group of same-kind ids stable-sorted by record,
    descending: the k-th id of a group takes the k-th record in that order.
    `renamings` caches, by that order, the `translate` table from old ids
    to new ones and a getter of every task's record in new id order. Kept
    apart from `symmetric_key` so that the sort key's closure over `raw`
    does not slow the calls that rename nothing."""
    record, order = layout.record_slices, []
    for ids in groups:
        order += sorted(ids, key=lambda t: raw[record[t]], reverse=True)
    order = tuple(order)
    if (renaming := renamings.get(order)) is None:
        new_id = dict(zip(order, (t for ids in groups for t in ids)))
        old_id = {new: old for old, new in new_id.items()}
        renaming = renamings[order] = (
            _table(new_id),
            itemgetter(*(record[old_id.get(t, t)] for t in range(layout.task_count))))
    table, reorder = renaming
    renamed = raw.translate(table)
    live = QUEUE + raw[QUEUE_LEN]
    return b"".join((raw[:QUEUE], renamed[QUEUE:live], raw[live:layout.tasks],
                     *reorder(raw), renamed[layout.cores:]))


def _table(new_id: dict[int, int]) -> bytes:
    """The `translate` table that renames each task id to `new_id`'s value
    and keeps every other byte."""
    return bytes(new_id.get(byte, byte) for byte in range(256))
