"""Exhaustive interleaving exploration over kernel-model steps.

A fixed set of virtual processes (the primary core's timer and
preempter, a spawner, and one worker per core) each contribute guarded
atomic steps. `explore` runs a breadth-first search over the canonical
forms of states under renamings of same-kind tasks and of the identical
worker cores (`model.symmetric_key`), and keeps a parent map, as TLC
does. It records monitor violations, deadlocks and invariant failures by
class (`violation_class`): one shortest counterexample per class, whose
steps are found again along the parent map from the real initial state,
so every trace is a real path. `random_walk` steps one state in place
along a seeded schedule, standing in for live runtime verification, and
counts exact states (`snapshot`); `replay` re-runs a recorded schedule
the same way and builds its trace. Every trace is built by `replay`: an
`explore` counterexample's, a walk's that ends in a verdict, and a
recorded one's. All of them end a path by one rule (`_settle`). The rule
makes one pass over a state's cores and spawned tasks (`_examine`), which
gives the invariant failure, the enabled steps and the deadlock test;
`check_invariants` and `enabled` are views of that pass.

Only `explore` steps states through the two per-plan memos, and it holds
them as bytes and their numbers: `_settler` keys each ending rule by the
state's number masked to the cells it reads (`Layout.settle_mask`), and
`_transition` keeps one trie per step, keyed by the bytes of the cells
the step read, whose leaves mask and set the bytes it wrote, so an
operation runs only on a miss, and an array is built only on a miss of
either memo. The fix and fault toggles are cells of the state, so the
configs of a plan share one `Layout`, and what either memo learns under
one config holds under every config of the plan: every search of a plan
shares them (`_plan_memos`, keyed by the Layout). The steps of its traces
are found through those same memos.
"""

from __future__ import annotations

import random
import re
from array import array
from dataclasses import dataclass, field
from functools import cache
from sys import byteorder

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
    SKIP_RESUME_STATE,
    SPAWN_CURSOR,
    T_IN_QUEUE,
    T_NEED_SCHED,
    T_PREEMPTIONS,
    T_STATE,
    T_TIMER,
    TASK_WIDTH,
    TERMINATED,
    WAITING,
    KernelConfig,
    KernelState,
    Layout,
    TaskState,
    initial_state,
    layout_for,
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


# One atomic step, as a report stores it: (process kind, worker core or None,
# variant), where `variant` indexes that process's enabled choices (which
# timer entry, which target core).
ScheduleStep = tuple[str, int | None, int]


def process_name(step: ScheduleStep) -> str:
    """The step's process: `Worker(1)`, `PrimaryTimer`."""
    kind, core, _ = step
    return f"Worker({core})" if kind == "Worker" else kind


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
            name = process_name(step)
            out.append(f"#{i} {name} | {ann.label}")
            for line in ann.monitor_lines:
                out.append(f"#{i} {name} | {line}")
        return out


@dataclass
class ExplorationReport:
    config: KernelConfig
    states_visited: int = 0
    transitions_taken: int = 0
    max_depth: int = 0
    quiescent_ok: int = 0
    violations: list[Trace] = field(default_factory=list)
    # per violation, the violating states of its class that the search met
    violating_states: list[int] = field(default_factory=list)
    incomplete: bool = False
    # the first limit that cut the run short: max_states, max_depth,
    # max_violations or max_steps
    incomplete_reason: str | None = None

    @property
    def all_paths_terminal_ok(self) -> bool:
        return not self.violations and not self.incomplete


def _task_state_summary(buf: array, layout: Layout) -> tuple[tuple[int, str], ...]:
    names = tuple(TaskState)
    out = []
    for t in range(buf[SPAWN_CURSOR]):
        at = layout.tasks + t * TASK_WIDTH
        flag = "true" if buf[at + T_NEED_SCHED] else "false"
        out.append((t, f"{names[buf[at + T_STATE]].value}({flag})"))
    return tuple(out)


def _apply(state: KernelState, choice: ScheduleStep) -> KernelState:
    """Clone-and-execute one enabled step: the reference that the tests hold
    the memo and in-place walks to; the caller guarantees enabledness."""
    succ = state.clone()
    _run(succ, choice)
    return succ


def _run(state: KernelState, choice: ScheduleStep) -> None:
    """Execute one enabled step on the settled state `state` in place. A
    variant reads the timer flags or worker cores only up to its own entry,
    and the preempter tells a decision from an IPI by the in-flight flag:
    set, on a settled state, exactly while a decision awaits its IPI
    whenever the preempter is enabled (`_examine`)."""
    kind, core, variant = choice
    if kind == "PrimaryTimer":
        state.timer_fire(state.fireable_timers(variant + 1)[variant])
    elif kind == "PrimaryPreempter":
        if state.buf[IN_FLIGHT]:
            state.send_ipi()
        else:
            state.preempt_decide(state.preempt_candidates(variant + 1)[variant])
    elif kind == "Spawner":
        state.spawn_next()
    else:
        # an IPI masks everything else; then a core polls its task, if any
        buf, at = state.buf, state.layout.cores + core * CORE_WIDTH
        if buf[at + C_PENDING_IPI] != -1 or buf[at + C_IPI_PHASE] != -1:
            state.handle_ipi_step(core)
        elif buf[at + C_CURRENT] >= 0:
            state.poll_step(core)
        else:
            state.get_next_task(core)


class _Recorder:
    """Stands in for a state's array while one step runs on a transition-memo
    miss: notes, in order, each cell read before the step wrote it, slices
    cell by cell, and each cell written."""

    __slots__ = ("buf", "reads", "written")

    def __init__(self, buf: array) -> None:
        self.buf = buf
        self.reads: dict[int, None] = {}
        self.written: dict[int, None] = {}

    def __getitem__(self, key: int | slice):
        if type(key) is int:
            if key not in self.written:
                self.reads.setdefault(key)
        else:
            for at in range(*key.indices(len(self.buf))):
                if at not in self.written:
                    self.reads.setdefault(at)
        return self.buf[key]

    def __setitem__(self, key: int | slice, value) -> None:
        self.buf[key] = value
        if type(key) is int:
            self.written[key] = None
        else:
            self.written.update(dict.fromkeys(range(*key.indices(len(self.buf)))))


def _transition(
    layout: Layout, raw: bytes, number: int, choice: ScheduleStep,
    roots: dict[ScheduleStep, list],
) -> tuple[bytes, tuple]:
    """The bytes of the successor of the state `raw`, whose number
    (`int.from_bytes` in native order) is `number`, by the enabled step
    `choice`, and the step's effect: a leaf (keep mask, put bits,
    MonitorViolation or None) of the step's trie in `roots`, the plan's
    tries keyed by step. A node is [byte offset, {byte: child}], and a state
    walks it by its byte at the offset; the successor is the state's number
    with the written bytes masked out and set. The step runs only on a
    miss."""
    leaf = root = roots.get(choice) or roots.setdefault(choice, [0, {}])
    while type(leaf) is list:
        leaf = leaf[1].get(raw[leaf[0]])
    if leaf is None:
        leaf = _learn(layout, raw, choice, root)
    return (number & leaf[0] | leaf[1]).to_bytes(len(raw), byteorder), leaf


def _learn(layout: Layout, raw: bytes, choice: ScheduleStep, root: list) -> tuple:
    """Run `choice` once on the plan's scratch state (`_plan_memos`), its
    recorder set to an array of `raw`, and add its leaf to the trie `root`
    along the bytes of the cells it read, in order (an empty root takes the
    first of them as its offset), so a two-byte cell is two nodes. For a
    fixed plan an operation is a deterministic function of the cells it
    reads, toggles included, so every state that walks this path would take
    the same path and have the same effect: the bytes of the cells it wrote,
    which the leaf's mask clears and its bits set."""
    state = _plan_memos(layout)[3]
    recorder = state.buf
    recorder.buf = array(layout.boot.typecode, raw)
    recorder.reads, recorder.written = reads, written = {}, {}
    _run(state, choice)
    masks, size = layout.cell_masks, recorder.buf.itemsize
    keep = (1 << 8 * len(raw)) - 1
    for at in written:
        keep ^= masks[at]
    leaf = (keep, int.from_bytes(recorder.buf.tobytes(), byteorder) & ~keep, state.violation)
    path = list(reads) if size == 1 else [
        at for cell in reads for at in range(cell * size, cell * size + size)]
    if not root[1]:
        root[0] = path[0]
    node, last = root, len(path) - 1
    for k, at in enumerate(path):
        assert node[0] == at, "a step read different cells after equal values"
        children = node[1]
        if (node := children.get(raw[at])) is None:
            node = children[raw[at]] = [path[k + 1], {}] if k < last else leaf
    return leaf


def _examine(state: KernelState) -> tuple[str | None, tuple[ScheduleStep, ...], bool]:
    """The one pass that settles a state, over its cores and then its spawned
    tasks: (the first failing invariant or None, the enabled steps, whether
    every spawned task is terminal). Reads only the cells of
    `Layout.settle_offsets`: `explore` memoizes `_settle` on those cells
    (`Layout.settle_mask`).

    The invariants every reachable state must satisfy, in the order a
    failure is reported: the run queue within capacity and without
    duplicates; per spawned task in id order, `in_queue` matching the queue
    and the preemption budget at least zero; no task current on two cores;
    none on the primary core; a running task current, a terminal one neither
    queued nor current, a waiting one not queued; at most one preemption
    decision or IPI outstanding, and the in-flight flag set exactly while
    one is or a core handles one; a decision observing a heavy task. Two
    more checks come last, for task ids that no operation writes: a
    decision or a worker's current task naming a task outside the plan
    fails an invariant rather than index past the plan. The steps are ordered: timer variants first, then
    preempter, spawner, and workers ascending."""
    buf, layout = state.buf, state.layout
    timer_steps, preempt_steps, spawner_step, worker_steps = layout.steps
    n, tasks, cores, heavy = layout.task_count, layout.tasks, layout.cores, layout.heavy
    resume = buf[SKIP_RESUME_STATE]
    length = buf[QUEUE_LEN]
    queue = tuple(buf[QUEUE:QUEUE + length])
    # The primary core runs no worker step, but its cells count for the
    # invariants. `outstanding` counts decisions and pending IPIs; `target`
    # is the first core with a decision, which observed task `observed`.
    primary = buf[cores + C_CURRENT]
    currents = [primary] if primary >= 0 else []
    outstanding = buf[cores + C_PENDING_IPI] != -1
    handling = buf[cores + C_IPI_PHASE] != -1
    target = observed = None
    if (task := buf[cores + C_DECISION]) >= 0:
        outstanding, target, observed = outstanding + 1, cores, task
    candidates, workers, at, stray = 0, [], cores, None
    for step in worker_steps:
        at += CORE_WIDTH
        ipi = buf[at + C_PENDING_IPI] != -1  # an IPI masks everything else
        outstanding += ipi
        if buf[at + C_IPI_PHASE] != -1:
            ipi = handling = True
        if (task := buf[at + C_DECISION]) >= 0:
            outstanding += 1
            if target is None:
                target, observed = at, task
        if (task := buf[at + C_CURRENT]) >= n:  # outside the plan: no record
            currents.append(task)
            stray = stray or task
        elif task >= 0:
            currents.append(task)
            record = tasks + task * TASK_WIDTH
            if (task_state := buf[record + T_STATE]) == RUNNING:
                if heavy[task]:
                    candidates += buf[record + T_PREEMPTIONS] > 0
                workers.append(step)
            elif ipi or (task_state == PREEMPTED and resume):
                workers.append(step)
        elif ipi or length > 0:  # an idle core fetches
            workers.append(step)
    # The first failure of a task's queue flag or budget comes before the
    # core checks; `late`, a task-state failure, comes after some of them.
    failure = late = None
    spawned, running, done, at = buf[SPAWN_CURSOR], False, 0, tasks
    for t in range(spawned):
        in_queue = buf[at + T_IN_QUEUE]
        if (in_queue == 1) != (t in queue):
            failure = failure or f"task {t} in_queue={in_queue == 1} but queue={queue}"
        elif buf[at + T_PREEMPTIONS] < 0:
            failure = failure or f"task {t} counter below zero"
        if (task_state := buf[at + T_STATE]) == RUNNING:
            running = True
            if late is None and t not in currents:
                late = f"running task {t} is not current on any core"
        elif task_state == TERMINATED:
            done += 1
            if late is None and (in_queue or t in currents):
                late = f"terminal task {t} is queued or current"
        elif task_state == WAITING and in_queue and late is None:
            late = f"waiting task {t} is queued"
        at += TASK_WIDTH
    if length > n:
        failure = f"run queue over capacity: {length} entries for {n} tasks"
    elif len(set(queue)) != len(queue):
        failure = f"duplicate task ids in run queue {queue}"
    elif failure is None:
        if len(set(currents)) != len(currents):
            failure = f"cores share a current task: {currents}"
        elif primary >= 0:
            failure = "primary core has a current task"
        elif late is not None:
            failure = late
        elif outstanding > 1:
            failure = "more than one preemption decision outstanding"
        elif (buf[IN_FLIGHT] == 1) != (outstanding > 0 or handling):
            failure = "preempt_in_flight flag out of sync"
        elif target is not None and observed >= n:
            failure = f"task {observed} outside the plan observed by a preemption decision"
        elif target is not None and not heavy[observed]:
            failure = f"light task {observed} observed by a preemption decision"
        elif stray is not None:
            failure = f"task {stray} outside the plan is current on a core"
    steps = list(timer_steps[:n - buf[tasks + T_TIMER:cores:TASK_WIDTH].count(0)])
    if not buf[IN_FLIGHT]:
        steps += preempt_steps[:candidates]
    elif target is not None and buf[target + C_PENDING_IPI] == -1:
        steps.append(preempt_steps[0])
    # The plan always finishes spawning: enabled while something runs
    # (any running task may spawn) and again once everything spawned so
    # far has terminated, so no maximal path strands unspawned entries.
    if spawned < n and (running or done == spawned):
        steps.append(spawner_step)
    steps += workers
    return failure, tuple(steps), done == spawned


def check_invariants(state: KernelState) -> str | None:
    """The first structural invariant that `state` fails, or None: the
    invariants of `_examine`'s pass."""
    return _examine(state)[0]


def enabled(state: KernelState) -> list[ScheduleStep]:
    """All enabled steps of `state`, deterministically ordered: those of
    `_examine`'s pass."""
    return list(_examine(state)[1])


@dataclass(frozen=True)
class Limits:
    """`explore`'s budgets: states visited, depth in steps, and violation
    classes found."""

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


def _settle(state: KernelState) -> tuple[str | None, str, tuple[ScheduleStep, ...]]:
    """The one ending rule for a state just reached, as (verdict, detail,
    enabled steps): a monitor violation, then an invariant failure, end the
    path there; otherwise the path goes on by the enabled steps, and none
    enabled while some task is not terminal is a deadlock. All but the
    monitor violation come from one pass over the state (`_examine`)."""
    if state.violation is not None:
        return VERDICT_MONITOR, "", ()
    failure, options, terminal = _examine(state)
    if failure is not None:
        return VERDICT_ASSERTION, failure, ()
    if not options and not terminal:
        return VERDICT_DEADLOCK, "no step enabled, tasks not terminal", ()
    return None, "", options


@cache
def _plan_memos(layout: Layout) -> tuple[dict, dict, dict, KernelState]:
    """The memos that every search of the plan of `layout` shares until
    `release_plan_memos`, or else for the life of the process: the tries
    by step (`_transition`), the settle memo (`_settler`), one copy of each
    distinct settle answer, which the memo's entries share, and `_learn`'s
    one state, on a recorder. `schedcheck --matrix` runs the 32 fix/fault
    searches of one plan on them. The toggles are cells of the state, so
    every trie path and settle key that depends on a toggle holds its
    value, and what one config learns holds for every config of the plan.
    The Layout holds the key's caches (`model._task_renames`)."""
    return {}, {}, {}, KernelState(layout, _Recorder(layout.boot[:]))


def release_plan_memos() -> None:
    """Drop every plan's step memos (`_plan_memos`), for a process whose
    later searches are of other plans."""
    _plan_memos.cache_clear()


def _settler(layout: Layout):
    """`settle(raw, violation, number)`: `_settle`'s answer for the state
    whose bytes are `raw` and whose number (`int.from_bytes` of `raw` in
    native order) is `number`, reached by a step with that monitor
    violation. It is kept per plan by the number masked to the settle
    cells (`Layout.settle_mask`); a miss settles the search's one
    `KernelState`, pointed at an array of `raw`."""
    mask, typecode = layout.settle_mask, layout.boot.typecode
    _, memo, answers, _ = _plan_memos(layout)
    state = KernelState(layout, layout.boot[:])

    def settle(raw: bytes, violation: MonitorViolation | None, number: int) -> tuple:
        if violation is not None:
            return VERDICT_MONITOR, "", ()
        if (settled := memo.get(key := number & mask)) is None:
            state.buf = array(typecode, raw)
            answer = _settle(state)
            settled = memo[key] = answers.setdefault(answer, answer)
        return settled

    return settle


def violation_class(
    config: KernelConfig, verdict: str, violation: MonitorViolation | None, detail: str,
) -> tuple:
    """What `explore` records one trace of: a monitor violation's verdict,
    the kind of its task (`H` or `L`), monitor state and symbol; any other
    verdict with its detail, its numbers masked. So the same failure on
    other ids is one class, as it must be: `explore` keeps one state of
    those that differ by a renaming of same-kind tasks, and a task id does
    not survive the renaming."""
    if violation is not None:
        return (verdict, config.task_plan[violation.task].value, violation.current_state,
                violation.symbol)
    return verdict, re.sub(r"\d+", "#", detail)


def explore(config: KernelConfig, limits: Limits | None = None) -> ExplorationReport:
    """Exhaustive breadth-first search from the initial state, with one
    shortest counterexample per violation class.

    The visited set is a dict from each state's `symmetric_key` to its
    parent's key (None at the root). So of the states that differ only by
    a renaming of the spawned tasks of a kind or of the worker cores, one
    is searched, in the form of its key: the search settles and expands
    the key's bytes, not the successor it reached. The counters
    count states up to that renaming. A key is its own key, so a
    successor's bytes are looked up first; a successor of a key is mostly
    a key already. This is symmetry reduction (Ip and Dill, 1996; Emerson
    and Sistla, 1996), and it is sound because each renaming is a
    symmetry of the model: scripts and bounds depend only on a task's
    kind; no operation, enabled step or predicate names a fixed task or
    worker; and a renaming reorders the timer variants of a state, but
    maps its successor set onto that of the renamed state. So a renamed
    state reaches the renamed violations, and `violation_class` names a
    monitor violation's task by its kind.

    Violating states are leaves. The first violating state of each class
    (`violation_class`) lies, in BFS order, at the least depth of its
    class; its steps are found along the parent map (`_steps_to`) through
    the plan's memos, and its trace is their `replay`. Later states of
    a known class are only counted, in `violating_states`, and
    `max_violations` counts classes. Hitting a limit flags the report
    incomplete, names the first limit that cut it in `incomplete_reason`,
    and does not crash. `max_depth` d searches exactly the states within d
    steps, and cuts the search only when some state lies beyond them: the
    states left unexpanded at depth d are probed after the search, and the
    cut holds only if one of their successors is a state it never visited.
    Probes are not counted.
    Each level of the frontier is three parallel lists: the keys, their
    numbers and their enabled steps. The loop walks the step tries itself,
    as `_transition` does, so each successor is one mask-and-set of the
    key's number, then bytes, and an operation runs only on a
    transition-memo miss. A successor that is its own key keeps that
    number, which also keys its settle, for its expansion.
    """
    limits = limits or Limits()
    report = ExplorationReport(config=config)
    layout = layout_for(config)
    settle = _settler(layout)
    roots: dict[ScheduleStep, list] = _plan_memos(layout)[0]
    init = bytes(initial_state(config).buf)
    init_key = symmetric_key(init, layout)
    parents: dict[bytes, bytes | None] = {init_key: None}
    # violation class -> violating states of it; `firsts` keeps each one's first key
    counts: dict[tuple, int] = {}
    firsts: dict[tuple, bytes] = {}
    keys: list[bytes] = []
    numbers: list[int] = []
    opts: list[tuple[ScheduleStep, ...]] = []

    def cut(reason: str) -> None:
        report.incomplete = True
        report.incomplete_reason = report.incomplete_reason or reason

    def visit(key: bytes, number: int, violation: MonitorViolation | None,
              answer: tuple) -> bool:
        """File a newly visited state, its key `key` and its number `number`,
        by its settle answer `answer`; True when the search must stop."""
        verdict, detail, options = answer
        if verdict is not None:
            kind = violation_class(config, verdict, violation, detail)
            if kind in counts:
                counts[kind] += 1
                return False
            counts[kind] = 1
            firsts[kind] = key
            if len(counts) >= limits.max_violations:
                cut("max_violations")
                return True
        elif not options:
            report.quiescent_ok += 1
        else:
            keys.append(key)
            numbers.append(number)
            opts.append(options)
        return False

    max_states, max_depth, size = limits.max_states, limits.max_depth, len(init)
    states = 1
    transitions = depth = deepest = 0
    init_number = int.from_bytes(init_key, byteorder)
    stop = visit(init_key, init_number, None, settle(init_key, None, init_number))
    while keys and not stop and depth != max_depth:
        depth += 1
        level = zip(keys, numbers, opts)
        keys, numbers, opts = [], [], []
        for parent, number, options in level:
            for choice in options:
                # `_transition`, inline: walk the step's trie, then mask and set
                leaf = root = roots.get(choice) or roots.setdefault(choice, [0, {}])
                while type(leaf) is list:
                    offset, children = leaf
                    leaf = children.get(parent[offset])
                if leaf is None:
                    leaf = _learn(layout, parent, choice, root)
                keep, put, violation = leaf
                succ = number & keep | put
                raw = succ.to_bytes(size, byteorder)
                transitions += 1
                if raw in parents:
                    continue
                if (key := symmetric_key(raw, layout)) is not raw:
                    if key in parents:
                        continue
                    succ = int.from_bytes(key, byteorder)
                if max_states is not None and states >= max_states:
                    cut("max_states")
                    continue
                parents[key] = parent
                states += 1
                deepest = depth
                answer = settle(key, violation, succ)
                if answer[2]:  # expand it next level
                    keys.append(key)
                    numbers.append(succ)
                    opts.append(answer[2])
                elif stop := visit(key, succ, violation, answer):
                    break
            if stop:
                break
    # the last level holds the states left unexpanded at the depth limit; no
    # state is visited after another limit cuts, so their cut, if real, is the first
    if depth == max_depth and any(
        (raw := _transition(layout, key, number, choice, roots)[0]) not in parents
        and symmetric_key(raw, layout) not in parents
        for key, number, options in zip(keys, numbers, opts) for choice in options
    ):
        report.incomplete = True
        report.incomplete_reason = "max_depth"

    report.states_visited, report.transitions_taken = states, transitions
    report.max_depth = deepest
    for kind, key in firsts.items():
        steps = _steps_to(layout, init, key, parents, settle, roots)
        report.violations.append(replay(config, steps))
        report.violating_states.append(counts[kind])
    return report


def _steps_to(
    layout: Layout, init: bytes, key: bytes, parents: dict[bytes, bytes | None],
    settle, roots: dict[ScheduleStep, list],
) -> tuple[ScheduleStep, ...]:
    """A shortest real path from the initial state's bytes `init` to a state
    that `explore` keyed `key`: at each depth the first enabled step whose
    successor has the next key on the parent chain. The search expanded
    keys, so the path's states are not those it expanded, but each is a
    renaming of one: the first is the root, whose key the search expanded,
    and a renaming's successors are renamings of the successors of the
    state it renames. Every renaming of a state has the same key, so some
    step reaches the next key at every depth. `settle` and `roots` are the
    plan's memos, which a state that the search never expanded can miss
    and fill."""
    chain = []
    while key is not None:
        chain.append(key)
        key = parents[key]
    raw, steps = init, []
    for want in reversed(chain[:-1]):
        number = int.from_bytes(raw, byteorder)
        for choice in settle(raw, None, number)[2]:
            succ = _transition(layout, raw, number, choice, roots)[0]
            if symmetric_key(succ, layout) == want:
                break
        else:
            raise AssertionError(f"no step reaches the state at depth {len(steps) + 1}")
        steps.append(choice)
        raw = succ
    return tuple(steps)


def random_walk(config: KernelConfig, seed: int, max_steps: int) -> ExplorationReport:
    """One seeded pseudo-random schedule; fully replayable from (config, seed)."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    rng = random.Random(seed)
    report = ExplorationReport(config=config)
    state = initial_state(config)
    seen = {snapshot(state)}
    steps: list[ScheduleStep] = []
    verdict, _, options = _settle(state)
    while verdict is None and options:
        if len(steps) == max_steps:
            report.incomplete = True
            report.incomplete_reason = "max_steps"
            break
        choice = rng.choice(options)
        _run(state, choice)
        steps.append(choice)
        seen.add(snapshot(state))
        verdict, _, options = _settle(state)
    if verdict is not None:
        report.violations.append(replay(config, tuple(steps)))
        report.violating_states.append(1)
    elif not options:
        report.quiescent_ok += 1
    report.states_visited = len(seen)
    report.transitions_taken = report.max_depth = len(steps)
    return report


def replay(config: KernelConfig, steps: tuple[ScheduleStep, ...]) -> Trace:
    """Re-execute a schedule under `config`, stepping one state in place as
    `random_walk` does, and build its trace: the one builder of every
    trace, `explore`'s, a walk's and a recorded one's, and so the one
    caller that renders step labels and monitor lines.

    Raises ReplayError naming the first step that is not enabled, or the
    step whose verdict comes before the schedule ends. A schedule that
    reproduces nothing gives a trace with verdict None.
    """
    state = initial_state(config)
    annotations: list[StepAnnotation] = []
    verdict, detail, options = _settle(state)
    for i, choice in enumerate(steps):
        if verdict is not None and i > 0:
            raise ReplayError(f"{verdict} already at step #{i - 1}, before the trace ends")
        if choice not in options:
            suffix = f"[{choice[2]}]" if choice[2] else ""
            raise ReplayError(
                f"step #{i} ({process_name(choice)}{suffix}) is not enabled; trace diverges")
        _run(state, choice)
        annotations.append(StepAnnotation(state.step_label, tuple(state.step_lines)))
        verdict, detail, options = _settle(state)
    buf = state.buf
    return Trace(tuple(steps), tuple(annotations), verdict, state.violation,
                 _task_state_summary(buf, state.layout), tuple(buf[QUEUE:QUEUE + buf[QUEUE_LEN]]),
                 detail)
