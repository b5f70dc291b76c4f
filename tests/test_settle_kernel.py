"""`_settle`'s one pass against the two passes it replaced.

`_settle` makes one pass over the cores and one over the spawned tasks,
which gives the invariant failure, the enabled steps and the deadlock
test; `enabled` and `check_invariants` are views of that pass. The oracle
below is the form they had before: `enabled` with one pass over the worker
cores, `check_invariants` with one pass over the cores and one over the
tasks, composed as `_settle` composed them (a monitor violation, then the
invariants, then the steps and the deadlock test). Every state that
`explore` settles on the 64 fix/fault combos of H,L,L/2 and H,H/2, every
state of 40 seeded walks of the benchmark's walk configuration, and every
in-domain single-cell mutation of a sample of those must get the same
answer from all three, raised exceptions included, and the mutations must
reach every invariant message and a deadlock. Task ids past the plan,
outside that domain, must give an invariant failure, never an exception."""

from __future__ import annotations

import itertools
import random

import pytest

from cells import all_tasks_terminal
from schedcheck import explorer
from schedcheck.explorer import (
    VERDICT_ASSERTION,
    VERDICT_DEADLOCK,
    VERDICT_MONITOR,
    _run,
    _settle,
    check_invariants,
    enabled,
    explore,
)
from schedcheck.model import (
    C_CURRENT,
    C_DECISION,
    C_IPI_PHASE,
    C_PENDING_IPI,
    CORE_WIDTH,
    CTX_SAVED,
    ENQUEUED,
    FAULTS,
    IN_FLIGHT,
    PENDING,
    PREEMPTED,
    QUEUE,
    QUEUE_LEN,
    RUNNING,
    SKIP_RESUME_STATE,
    SPAWN_CURSOR,
    STATED,
    T_IN_QUEUE,
    T_PREEMPTIONS,
    T_STATE,
    T_TIMER,
    TASK_WIDTH,
    TERMINATED,
    WAITING,
    KernelConfig,
    KernelState,
    Layout,
    TaskKind,
    initial_state,
)

H = TaskKind.HEAVY
L = TaskKind.LIGHT


# -- the oracle ---------------------------------------------------------


def oracle_enabled(state: KernelState) -> list:
    buf, layout = state.buf, state.layout
    timer_steps, preempt_steps, spawner_step, worker_steps = layout.steps
    tasks, cores = layout.tasks, layout.cores
    heavy, resume = layout.heavy, buf[SKIP_RESUME_STATE]
    queued = buf[QUEUE_LEN] > 0
    candidates, workers, at = 0, [], cores
    for step in worker_steps:
        at += CORE_WIDTH
        can_step = queued  # an idle core fetches
        if (task := buf[at + C_CURRENT]) >= 0:
            record = tasks + task * TASK_WIDTH
            task_state = buf[record + T_STATE]
            if task_state == RUNNING and heavy[task]:
                candidates += buf[record + T_PREEMPTIONS] > 0
            can_step = task_state == RUNNING or (task_state == PREEMPTED and resume)
        if can_step or buf[at + C_PENDING_IPI] != -1 or buf[at + C_IPI_PHASE] != -1:
            workers.append(step)
    timers = buf[tasks + T_TIMER:cores:TASK_WIDTH]
    steps = list(timer_steps[:len(timers) - timers.count(0)])
    if not buf[IN_FLIGHT]:
        steps += preempt_steps[:candidates]
    elif (decision := state.decision) is not None:
        if buf[cores + decision[0] * CORE_WIDTH + C_PENDING_IPI] == -1:
            steps.append(preempt_steps[0])
    spawned = buf[SPAWN_CURSOR]
    if spawned < layout.task_count:
        live = buf[tasks + T_STATE:tasks + spawned * TASK_WIDTH:TASK_WIDTH]
        if RUNNING in live or live.count(TERMINATED) == spawned:
            steps.append(spawner_step)
    steps += workers
    return steps


def oracle_check_invariants(state: KernelState) -> str | None:
    buf, layout = state.buf, state.layout
    tasks, cores, end = layout.tasks, layout.cores, len(buf)
    if buf[QUEUE_LEN] > layout.task_count:
        return f"run queue over capacity: {buf[QUEUE_LEN]} entries for {layout.task_count} tasks"
    queue = tuple(buf[QUEUE:QUEUE + buf[QUEUE_LEN]])
    if len(set(queue)) != len(queue):
        return f"duplicate task ids in run queue {queue}"
    currents, decided, outstanding, handling = [], [], 0, False
    for at in range(cores, end, CORE_WIDTH):
        if (task := buf[at + C_CURRENT]) >= 0:
            currents.append(task)
        if (task := buf[at + C_DECISION]) >= 0:
            decided.append(task)
        outstanding += buf[at + C_PENDING_IPI] != -1
        handling = handling or buf[at + C_IPI_PHASE] != -1
    late, at = None, tasks
    for t in range(buf[SPAWN_CURSOR]):
        in_queue = buf[at + T_IN_QUEUE]
        if (in_queue == 1) != (t in queue):
            return f"task {t} in_queue={in_queue == 1} but queue={queue}"
        if buf[at + T_PREEMPTIONS] < 0:
            return f"task {t} counter below zero"
        if late is None:
            task_state = buf[at + T_STATE]
            if task_state == RUNNING and t not in currents:
                late = f"running task {t} is not current on any core"
            elif task_state == TERMINATED and (in_queue or t in currents):
                late = f"terminal task {t} is queued or current"
            elif task_state == WAITING and in_queue:
                late = f"waiting task {t} is queued"
        at += TASK_WIDTH
    if len(set(currents)) != len(currents):
        return f"cores share a current task: {currents}"
    if buf[cores + C_CURRENT] >= 0:
        return "primary core has a current task"
    if late is not None:
        return late
    outstanding += len(decided)
    if outstanding > 1:
        return "more than one preemption decision outstanding"
    if (buf[IN_FLIGHT] == 1) != (outstanding > 0 or handling):
        return "preempt_in_flight flag out of sync"
    if decided and not layout.heavy[decided[0]]:
        return f"light task {decided[0]} observed by a preemption decision"
    return None


def oracle_settle(state: KernelState) -> tuple:
    if state.violation is not None:
        return VERDICT_MONITOR, "", ()
    if (failure := oracle_check_invariants(state)) is not None:
        return VERDICT_ASSERTION, failure, ()
    options = tuple(oracle_enabled(state))
    if not options and not all_tasks_terminal(state):
        return VERDICT_DEADLOCK, "no step enabled, tasks not terminal", options
    return None, "", options


# The message of each check, without its numbers, in check order.
MESSAGES = (
    "run queue over capacity", "duplicate task ids in run queue", "in_queue=",
    "counter below zero", "cores share a current task", "primary core has a current task",
    "is not current on any core", "is queued or current", "waiting task",
    "more than one preemption decision outstanding", "preempt_in_flight flag out of sync",
    "observed by a preemption decision",
)


def outcome(fn, state: KernelState) -> tuple:
    try:
        return "returns", fn(state)
    except Exception as exc:  # an exception is an answer too, and must match
        return "raises", type(exc).__name__, str(exc)


def assert_same(state: KernelState) -> tuple:
    """`_settle` and its views `check_invariants` and `enabled` agree with
    the oracle on `state`; returns the oracle's settle outcome."""
    expected = outcome(oracle_settle, state)
    assert outcome(_settle, state) == expected, list(state.buf)
    assert (outcome(check_invariants, state)
            == outcome(oracle_check_invariants, state)), list(state.buf)
    assert outcome(enabled, state) == outcome(oracle_enabled, state), list(state.buf)
    return expected


def assert_variants_index_the_lists(state: KernelState) -> None:
    """The timer and preempter variants that settling hands out are the
    indices of `fireable_timers()` and `preempt_candidates()`, of which
    `_run` reads only the first variant + 1 entries, so there are as many
    as those lists hold."""
    kinds = [kind for kind, _, _ in enabled(state)]
    assert kinds.count("PrimaryTimer") == len(state.fireable_timers()), list(state.buf)
    if not state.buf[IN_FLIGHT]:
        assert (kinds.count("PrimaryPreempter")
                == len(state.preempt_candidates())), list(state.buf)


# -- the states -----------------------------------------------------------

COMBOS = [
    (fix_wait, fix_preempt, frozenset(faults))
    for fix_wait, fix_preempt in itertools.product((True, False), repeat=2)
    for n in range(len(FAULTS) + 1)
    for faults in itertools.combinations(sorted(FAULTS), n)
]
PLANS = {"H,L,L/2": ((H, L, L), 2), "H,H/2": ((H, H), 2)}

WALK_PLAN = (H, H, H, H, L, L, L, L)
WALK_CONFIGS = {
    fixes: KernelConfig(worker_count=4, task_plan=WALK_PLAN, max_waits_per_task=3,
                        max_preemptions_per_task=3, fix_wait_need_sched=fixes,
                        fix_preempt_need_sched=fixes)
    for fixes in (True, False)
}
WALK_SEEDS = range(20)


def settled_states(config: KernelConfig, monkeypatch) -> list[KernelState]:
    """Every state `explore` settles under `config` (one per settle
    projection: the memo's misses)."""
    seen = []

    def recording(state):
        seen.append(KernelState(state.layout, state.buf[:]))
        return settle(state)

    settle = explorer._settle
    with monkeypatch.context() as patch:
        patch.setattr(explorer, "_settle", recording)
        explore(config, explorer.Limits(max_violations=10**9))
    return seen


def walk_states(config: KernelConfig, seed: int) -> list[KernelState]:
    """The states of one seeded walk, as `random_walk` steps them, each with
    the monitor violation of the step that reached it."""
    rng = random.Random(seed)
    state = initial_state(config)
    out = []
    while True:
        copy = KernelState(state.layout, state.buf[:])
        copy.violation = state.violation
        out.append(copy)
        verdict, _, options = _settle(state)
        if verdict is not None or not options:
            return out
        _run(state, options[rng.randrange(len(options))])


@pytest.mark.usefixtures("cold_memos")  # every combo's misses, not the plan's
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_every_settled_state_of_every_combo_agrees(plan, monkeypatch):
    tasks, workers = PLANS[plan]
    count = 0
    for fix_wait, fix_preempt, faults in COMBOS:
        config = KernelConfig(worker_count=workers, task_plan=tasks, faults=faults,
                              fix_wait_need_sched=fix_wait,
                              fix_preempt_need_sched=fix_preempt)
        for state in settled_states(config, monkeypatch):
            assert_same(state)
            assert_variants_index_the_lists(state)
            count += 1
    assert count > 32 * 100


@pytest.fixture(scope="module")
def walked() -> list[KernelState]:
    return [state for config in WALK_CONFIGS.values() for seed in WALK_SEEDS
            for state in walk_states(config, seed)]


def test_every_walk_state_agrees(walked):
    assert len(walked) > 2000
    verdicts = {assert_same(state)[1][0] for state in walked}
    assert verdicts == {None, VERDICT_MONITOR}
    # A walk ends at a monitor violation, but its last state must still
    # satisfy the invariants, which `_settle` skips on a monitor verdict.
    assert {outcome(check_invariants, state) for state in walked} == {("returns", None)}
    for state in walked:
        assert_variants_index_the_lists(state)


def domains(layout: Layout) -> dict[int, range]:
    """Per cell that settling reads, the values of its field's domain:
    flags 0 or 1 (the skip-resume-state toggle among them), task ids (-1
    for none), state codes, the budget down to an overrun of -1, the
    pending-IPI flag and handler phases (-1 for none), the cursor and the
    queue length up to one past capacity."""
    n = layout.task_count
    ids, flags = range(-1, n), range(2)
    budget = range(-1, layout.preemptions + 1)
    out = {SKIP_RESUME_STATE: flags, IN_FLIGHT: flags, SPAWN_CURSOR: range(n + 1),
           QUEUE_LEN: range(n + 2)}
    out.update(dict.fromkeys(range(QUEUE, layout.tasks), range(n)))
    for at in range(layout.tasks, layout.cores, TASK_WIDTH):
        out.update({at + T_STATE: range(5), at + T_IN_QUEUE: flags,
                    at + T_PREEMPTIONS: budget, at + T_TIMER: flags})
    for at in range(layout.cores, len(layout.boot), CORE_WIDTH):
        out.update({at + C_CURRENT: ids, at + C_PENDING_IPI: (-1, PENDING), at + C_IPI_PHASE: (-1, CTX_SAVED, STATED, ENQUEUED),
                    at + C_DECISION: ids})
    assert sorted(out) == sorted(layout.settle_offsets)
    return out


def test_single_cell_mutations_agree_and_reach_every_message(walked):
    sample = random.Random(19).sample(walked, 60)
    reached = set()
    mutants = 0
    for state in sample:
        for at, values in domains(state.layout).items():
            for value in values:
                if value == state.buf[at]:
                    continue
                mutant = KernelState(state.layout, state.buf[:])
                mutant.buf[at] = value
                answer = assert_same(mutant)
                mutants += 1
                if answer[0] == "returns" and answer[1][0] == VERDICT_ASSERTION:
                    reached.add(next(m for m in MESSAGES if m in answer[1][1]))
                elif answer[0] == "returns" and answer[1][0] == VERDICT_DEADLOCK:
                    reached.add(VERDICT_DEADLOCK)
    assert mutants > 10_000
    assert reached == {*MESSAGES, VERDICT_DEADLOCK}


def test_task_ids_outside_the_plan_fail_an_invariant(walked):
    """A worker's current task or a decision naming a task past the plan,
    which no operation writes, gives an invariant failure and never an
    exception: the oracle's failure where it has one, else a last check of
    its own."""
    sample = random.Random(20).sample(walked, 60)
    checked = set()
    for state in sample:
        n, cores = state.layout.task_count, state.layout.cores
        for core in range(state.layout.core_count):
            at = cores + core * CORE_WIDTH
            cells = [(C_DECISION, "observed by a preemption decision")]
            if core:  # the primary core's current task fails its own check
                cells.append((C_CURRENT, "is current on a core"))
            for field, message in cells:
                for value in (n, n + 1):
                    mutant = KernelState(state.layout, state.buf[:])
                    mutant.buf[at + field] = value
                    expected = outcome(oracle_check_invariants, mutant)
                    verdict, detail, options = _settle(mutant)
                    assert verdict == VERDICT_ASSERTION and options == (), list(mutant.buf)
                    if expected[0] == "returns" and expected[1] is not None:
                        assert detail == expected[1], list(mutant.buf)
                    else:
                        assert detail == f"task {value} outside the plan {message}"
                        checked.add(field)
    assert checked == {C_CURRENT, C_DECISION}
