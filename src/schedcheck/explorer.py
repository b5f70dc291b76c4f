"""Exhaustive interleaving exploration over kernel-model steps.

A fixed set of virtual processes (the primary core's timer and
preempter, a spawner, and one worker per core) each contribute guarded
atomic steps. `explore` runs a depth-first search that prunes states
already visited up to a renaming of the identical worker cores
(`model.symmetric_key`), recording monitor violations, deadlocks, and
invariant failures as replayable counterexample traces; its stack holds
the real states, so every trace is a real path. `random_walk` samples one
seeded schedule, standing in for live runtime verification, and counts
exact states (`snapshot`); `replay` re-executes a recorded schedule and
rebuilds its trace, and `replay_all` does so for a report's schedules,
running each shared prefix once. All of them end a path by one rule and build traces
one way.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cache

from .model import (
    C_CURRENT,
    C_DECISION,
    C_IPI_PHASE,
    C_PENDING_IPI,
    CORE_WIDTH,
    IN_FLIGHT,
    PREEMPTED,
    QUEUE,
    QUEUE_LEN,
    RUNNING,
    SPAWN_CURSOR,
    T_IN_QUEUE,
    T_NEED_SCHED,
    T_PREEMPTIONS,
    T_STATE,
    T_WAITS,
    TASK_WIDTH,
    TERMINATED,
    KernelConfig,
    KernelState,
    TaskState,
    initial_state,
    snapshot,
    symmetric_key,
)
from .monitor import MonitorViolation

PROCESS_KINDS = ("PrimaryTimer", "PrimaryPreempter", "Spawner", "Worker")

VERDICT_MONITOR = "MonitorViolation"
VERDICT_DEADLOCK = "Deadlock"
VERDICT_ASSERTION = "AssertionFailure"


class ReplayError(RuntimeError):
    """A recorded trace does not fit the configuration it is replayed under."""


@dataclass(frozen=True)
class VirtualProcess:
    kind: str
    core: int | None = None

    def __str__(self) -> str:
        if self.kind == "Worker":
            return f"Worker({self.core})"
        return self.kind


@dataclass(frozen=True)
class ScheduleStep:
    """One atomic step attributed to a virtual process; `variant` indexes
    that process's enabled choices (which timer entry, which target core)."""

    process: VirtualProcess
    variant: int = 0

    def __str__(self) -> str:
        if self.variant:
            return f"{self.process}[{self.variant}]"
        return str(self.process)


@dataclass(frozen=True)
class StepAnnotation:
    label: str
    monitor_lines: tuple[str, ...] = ()


@dataclass(frozen=True)
class Trace:
    """Replayable counterexample: the schedule, per-step annotations, the
    verdict (None for a replay that reproduces nothing), and a summary of
    the final state."""

    steps: tuple[ScheduleStep, ...]
    annotations: tuple[StepAnnotation, ...]
    verdict: str | None
    monitor_error: MonitorViolation | None = None
    final_task_states: tuple[tuple[int, str], ...] = ()
    final_queue: tuple[int, ...] = ()
    detail: str = ""

    def lines(self) -> list[str]:
        out = []
        for i, (step, ann) in enumerate(zip(self.steps, self.annotations)):
            out.append(f"#{i} {step.process} | {ann.label}")
            for line in ann.monitor_lines:
                out.append(f"#{i} {step.process} | {line}")
        return out


@dataclass
class ExplorationReport:
    config: KernelConfig
    states_visited: int = 0
    transitions_taken: int = 0
    max_depth: int = 0
    quiescent_ok: int = 0
    violations: list[Trace] = field(default_factory=list)
    incomplete: bool = False
    all_paths_terminal_ok: bool = False

    def finalize(self) -> None:
        self.all_paths_terminal_ok = not self.violations and not self.incomplete


def _task_state_summary(state: KernelState) -> tuple[tuple[int, str], ...]:
    buf, names = state.buf, tuple(TaskState)
    out = []
    for t in range(buf[SPAWN_CURSOR]):
        at = state.layout.tasks + t * TASK_WIDTH
        flag = "true" if buf[at + T_NEED_SCHED] else "false"
        out.append((t, f"{names[buf[at + T_STATE]].value}({flag})"))
    return tuple(out)


@cache
def _step_of(kind: str, core: int | None, variant: int) -> ScheduleStep:
    """The ScheduleStep for (kind, core, variant); built once, then shared.
    Callers pass all three arguments, so that equal steps share one key."""
    return ScheduleStep(VirtualProcess(kind, core), variant)


def enabled(state: KernelState) -> list[ScheduleStep]:
    """All enabled steps, deterministically ordered: timer variants first,
    then preempter, spawner, and workers ascending. Reads only the cells of
    `Layout.settle_offsets` and the config, since `_settle` memoizes on them."""
    buf, layout = state.buf, state.layout
    steps = [_step_of("PrimaryTimer", None, i) for i in range(len(state.fireable_timers()))]
    if not buf[IN_FLIGHT]:
        for i in range(len(state.preempt_candidates())):
            steps.append(_step_of("PrimaryPreempter", None, i))
    elif (decision := state.decision) is not None:
        if buf[layout.cores + decision[0] * CORE_WIDTH + C_PENDING_IPI] < 0:
            steps.append(_step_of("PrimaryPreempter", None, 0))
    if _spawner_enabled(state):
        steps.append(_step_of("Spawner", None, 0))
    for core_id in range(1, layout.core_count):
        if _worker_action(state, core_id) is not None:
            steps.append(_step_of("Worker", core_id, 0))
    return steps


def _spawner_enabled(state: KernelState) -> bool:
    # The plan always finishes spawning: enabled while something runs
    # (any running task may spawn) and again once everything spawned so
    # far has terminated, so no maximal path strands unspawned entries.
    buf, tasks = state.buf, state.layout.tasks
    spawned = buf[SPAWN_CURSOR]
    if spawned >= state.layout.task_count:
        return False
    if RUNNING in buf[tasks + T_STATE:tasks + spawned * TASK_WIDTH:TASK_WIDTH]:
        return True
    return state.all_tasks_terminal()


def _worker_action(state: KernelState, core_id: int) -> str | None:
    """Which step the worker core would take: an IPI masks everything else."""
    buf, layout = state.buf, state.layout
    at = layout.cores + core_id * CORE_WIDTH
    if buf[at + C_PENDING_IPI] >= 0 or buf[at + C_IPI_PHASE] >= 0:
        return "ipi"
    task = buf[at + C_CURRENT]
    if task >= 0:
        task_state = buf[layout.tasks + task * TASK_WIDTH + T_STATE]
        if task_state == RUNNING or (
            task_state == PREEMPTED and "skip-resume-state" in state.config.faults
        ):
            return "poll"
        return None
    if buf[QUEUE_LEN] > 0:
        return "fetch"
    return None


def _apply(state: KernelState, choice: ScheduleStep) -> KernelState:
    """Clone-and-execute one enabled step; the caller guarantees enabledness."""
    succ = state.clone()
    kind = choice.process.kind
    if kind == "PrimaryTimer":
        fireable = succ.fireable_timers()
        succ.timer_fire(fireable[choice.variant])
    elif kind == "PrimaryPreempter":
        if succ.decision is not None:
            succ.send_ipi()
        else:
            succ.preempt_decide(succ.preempt_candidates()[choice.variant])
    elif kind == "Spawner":
        succ.spawn_next()
    else:
        core_id = choice.process.core
        assert core_id is not None
        action = _worker_action(succ, core_id)
        if action == "ipi":
            succ.handle_ipi_step(core_id)
        elif action == "poll":
            succ.poll_step(core_id)
        else:
            succ.get_next_task(core_id)
    return succ


def check_invariants(state: KernelState) -> str | None:
    """Structural invariants every reachable state must satisfy; returns a
    description of the first failure, or None. Reads only the cells of
    `Layout.settle_offsets` and the config, since `_settle` memoizes on them."""
    buf, layout = state.buf, state.layout
    tasks, cores, end = layout.tasks, layout.cores, layout.monitors
    if buf[QUEUE_LEN] > layout.task_count:
        return f"run queue over capacity: {buf[QUEUE_LEN]} entries for {layout.task_count} tasks"
    queue = tuple(buf[QUEUE:QUEUE + buf[QUEUE_LEN]])
    if len(set(queue)) != len(queue):
        return f"duplicate task ids in run queue {queue}"
    spawned = range(buf[SPAWN_CURSOR])
    for t in spawned:
        at = tasks + t * TASK_WIDTH
        in_queue = buf[at + T_IN_QUEUE] == 1
        if in_queue != (t in queue):
            return f"task {t} in_queue={in_queue} but queue={queue}"
        if buf[at + T_WAITS] < 0 or buf[at + T_PREEMPTIONS] < 0:
            return f"task {t} counter below zero"
    currents = [t for t in buf[cores + C_CURRENT:end:CORE_WIDTH] if t >= 0]
    if len(set(currents)) != len(currents):
        return f"cores share a current task: {currents}"
    if buf[cores + C_CURRENT] >= 0:
        return "primary core has a current task"
    for t in spawned:
        at = tasks + t * TASK_WIDTH
        task_state = buf[at + T_STATE]
        if task_state == RUNNING and t not in currents:
            return f"running task {t} is not current on any core"
        if task_state == TERMINATED and (buf[at + T_IN_QUEUE] or t in currents):
            return f"terminal task {t} is queued or current"
    decided = [t for t in buf[cores + C_DECISION:end:CORE_WIDTH] if t >= 0]
    decisions = len(decided) + sum(
        1 for ipi in buf[cores + C_PENDING_IPI:end:CORE_WIDTH] if ipi >= 0
    )
    if decisions > 1:
        return "more than one preemption decision outstanding"
    handling = any(p >= 0 for p in buf[cores + C_IPI_PHASE:end:CORE_WIDTH])
    if (buf[IN_FLIGHT] == 1) != (decisions > 0 or handling):
        return "preempt_in_flight flag out of sync"
    if decided and not layout.heavy[decided[0]]:
        return f"light task {decided[0]} observed by a preemption decision"
    return None


@dataclass(frozen=True)
class Limits:
    max_states: int | None = None
    max_depth: int | None = None
    max_violations: int = 16

    def __post_init__(self) -> None:
        if self.max_states is not None and self.max_states <= 0:
            raise ValueError("max_states must be positive")
        if self.max_depth is not None and self.max_depth <= 0:
            raise ValueError("max_depth must be positive")
        if self.max_violations < 1:
            raise ValueError("max_violations must be at least 1")


def _settle(
    state: KernelState, memo: dict | None = None,
) -> tuple[str | None, str, tuple[ScheduleStep, ...]]:
    """The one ending rule for a state just reached, as (verdict, detail,
    enabled steps): a monitor violation, then an invariant failure, end the
    path there; otherwise the path goes on by the enabled steps, and none
    enabled while some task is not terminal is a deadlock. Past a violation
    (part of the step), `memo`, one dict per search, keys answers by `settle_key`."""
    if state.violation is not None:
        return VERDICT_MONITOR, "", ()
    if memo is not None:
        key = state.layout.settle_key(state.buf)
        if (settled := memo.get(key)) is None:
            settled = memo[key] = _settle(state)
        return settled
    if (failure := check_invariants(state)) is not None:
        return VERDICT_ASSERTION, failure, ()
    options = tuple(enabled(state))
    if not options and not state.all_tasks_terminal():
        return VERDICT_DEADLOCK, "no step enabled, tasks not terminal", options
    return None, "", options


def _trace(
    steps: Iterable[ScheduleStep], states: list[KernelState],
    verdict: str | None, detail: str,
) -> Trace:
    """Build a Trace: `states` are the initial state and the state after each
    step, which carries that step's label and monitor lines."""
    final = states[-1]
    return Trace(
        steps=tuple(steps),
        annotations=tuple(
            StepAnnotation(s.step_label, tuple(s.step_lines)) for s in states[1:]
        ),
        verdict=verdict,
        monitor_error=final.violation,
        final_task_states=_task_state_summary(final),
        final_queue=final.run_queue,
        detail=detail,
    )


def explore(config: KernelConfig, limits: Limits | None = None) -> ExplorationReport:
    """Exhaustive DFS from the initial state with visited-state pruning.

    The visited set holds `symmetric_key`s, so of the states that differ
    only by a renaming of worker cores, the first one reached is searched
    and the others are pruned; the counters count states up to that
    renaming. The stack keeps the real states, so each trace is a real
    path that replays under `config`.

    Violating states are leaves: the trace is recorded and the search
    backtracks. Hitting a limit flags the report incomplete instead of
    crashing. Each frame of the stack is [state, enabled steps, next
    index], so frame k took `options[idx - 1]` and a trace is read off the
    stack.
    """
    limits = limits or Limits()
    report = ExplorationReport(config=config)
    init = initial_state(config)
    visited = {symmetric_key(init)}
    report.states_visited = 1
    frames: list[list] = []
    memo: dict = {}

    def reach(state: KernelState) -> bool:
        """Settle a newly visited state; True when the search must stop."""
        verdict, detail, options = _settle(state, memo)
        if verdict is not None:
            report.violations.append(_trace(
                (opts[idx - 1] for _, opts, idx in frames),
                [frame[0] for frame in frames] + [state], verdict, detail,
            ))
            if len(report.violations) >= limits.max_violations:
                report.incomplete = True
                return True
        elif not options:
            report.quiescent_ok += 1
        elif limits.max_depth is not None and len(frames) >= limits.max_depth:
            report.incomplete = True
        else:
            frames.append([state, options, 0])
        return False

    stop = reach(init)
    while frames and not stop:
        frame = frames[-1]
        state, options, idx = frame
        if idx == len(options):
            frames.pop()
            continue
        frame[2] = idx + 1
        succ = _apply(state, options[idx])
        report.transitions_taken += 1
        key = symmetric_key(succ)
        if key in visited:
            continue
        if limits.max_states is not None and len(visited) >= limits.max_states:
            report.incomplete = True
            continue
        visited.add(key)
        report.states_visited += 1
        report.max_depth = max(report.max_depth, len(frames))
        stop = reach(succ)

    report.finalize()
    return report


def random_walk(config: KernelConfig, seed: int, max_steps: int) -> ExplorationReport:
    """One seeded pseudo-random schedule; fully replayable from (config, seed)."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    rng = random.Random(seed)
    report = ExplorationReport(config=config)
    state = initial_state(config)
    seen = {snapshot(state)}
    steps: list[ScheduleStep] = []
    states = [state]
    verdict, detail, options = _settle(state)
    while verdict is None and options:
        if len(steps) == max_steps:
            report.incomplete = True
            break
        choice = options[rng.randrange(len(options))]
        state = _apply(state, choice)
        report.transitions_taken += 1
        steps.append(choice)
        states.append(state)
        seen.add(snapshot(state))
        verdict, detail, options = _settle(state)
    if verdict is not None:
        report.violations.append(_trace(steps, states, verdict, detail))
    elif not options:
        report.quiescent_ok += 1
    report.states_visited = len(seen)
    report.max_depth = len(steps)
    report.finalize()
    return report


def replay(config: KernelConfig, steps: tuple[ScheduleStep, ...]) -> Trace:
    """Re-execute a recorded schedule under `config` and rebuild its trace.

    Raises ReplayError naming the first step that is not enabled, or the
    step whose verdict comes before the schedule ends. A schedule that
    reproduces nothing gives a trace with verdict None.
    """
    (result,) = replay_all(config, (steps,))
    if isinstance(result, ReplayError):
        raise result
    return result


def replay_all(
    config: KernelConfig, schedules: Iterable[Sequence[ScheduleStep]]
) -> Iterator[Trace | ReplayError]:
    """Replay each schedule as `replay` does, yielding its Trace, or the
    ReplayError that `replay` would raise.

    One path of (state, verdict, detail, enabled steps) entries is kept
    for the schedule replayed last; the next one is cut back to the prefix
    both share and runs only the steps past it. The traces of a report come
    off one DFS stack, so neighbours share most of their steps.
    """
    init = initial_state(config)
    memo: dict = {}
    path = [(init, *_settle(init, memo))]
    done: Sequence[ScheduleStep] = ()  # path[k + 1] is the state after done[k]
    for steps in schedules:
        i, shared = 0, min(len(steps), len(path) - 1)
        while i < shared and (steps[i] is done[i] or steps[i] == done[i]):
            i += 1
        del path[i + 1:]
        done = steps
        yield _replay_from(path, steps, i, memo)


def _replay_from(
    path: list[tuple], steps: Sequence[ScheduleStep], i: int, memo: dict,
) -> Trace | ReplayError:
    """Extend `path`, which holds the entries of steps[:i], by the rest of
    `steps`, with replay's checks in replay's order; `memo` is `_settle`'s."""
    while True:
        state, verdict, detail, options = path[i]
        if verdict is not None and 0 < i < len(steps):
            return ReplayError(f"{verdict} already at step #{i - 1}, before the trace ends")
        if i == len(steps):
            return _trace(steps, [entry[0] for entry in path], verdict, detail)
        choice = steps[i]
        if choice not in options:
            return ReplayError(f"step #{i} ({choice}) is not enabled; trace diverges")
        succ = _apply(state, choice)
        path.append((succ, *_settle(succ, memo)))
        i += 1
