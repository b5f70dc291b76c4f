"""`enabled` and `check_invariants` against their earlier, plainer forms.

Both functions make one pass per record kind: `enabled` over the worker
cores, `check_invariants` over the cores and then the spawned tasks. The
oracle below is the form they had before: one helper call per question
(`fireable_timers`, `preempt_candidates`, `decision`, a per-core
`_worker_action`) and two passes over the tasks. Every state
that `explore` settles on the 64 fix/fault combos of H,L,L/2 and H,H/2,
every state of seeded walks of the benchmark's walk configuration, and
single-cell mutations of a sample of those must get the same answer from
both, and the mutations must reach every `check_invariants` message."""

from __future__ import annotations

import itertools
import random

import pytest

from schedcheck import explorer
from schedcheck.explorer import _run, _settle, _step_of, check_invariants, enabled, explore
from schedcheck.model import (
    C_CURRENT,
    C_DECISION,
    C_IPI_PHASE,
    C_PENDING_IPI,
    CORE_WIDTH,
    FAULTS,
    IN_FLIGHT,
    PREEMPTED,
    QUEUE,
    QUEUE_LEN,
    RUNNING,
    SPAWN_CURSOR,
    T_IN_QUEUE,
    T_PREEMPTIONS,
    T_STATE,
    T_TIMER,
    T_WAITS,
    TASK_WIDTH,
    TERMINATED,
    KernelConfig,
    KernelState,
    TaskKind,
    initial_state,
    layout_for,
)

H = TaskKind.HEAVY
L = TaskKind.LIGHT


# -- the oracle ---------------------------------------------------------


def oracle_enabled(state: KernelState) -> list:
    buf, layout = state.buf, state.layout
    steps = [_step_of("PrimaryTimer", None, i) for i in range(len(state.fireable_timers()))]
    if not buf[IN_FLIGHT]:
        for i in range(len(state.preempt_candidates())):
            steps.append(_step_of("PrimaryPreempter", None, i))
    elif (decision := state.decision) is not None:
        if buf[layout.cores + decision[0] * CORE_WIDTH + C_PENDING_IPI] < 0:
            steps.append(_step_of("PrimaryPreempter", None, 0))
    if oracle_spawner_enabled(state):
        steps.append(_step_of("Spawner", None, 0))
    for core_id in range(1, layout.core_count):
        if oracle_worker_action(state, core_id) is not None:
            steps.append(_step_of("Worker", core_id, 0))
    return steps


def oracle_spawner_enabled(state: KernelState) -> bool:
    buf, tasks = state.buf, state.layout.tasks
    spawned = buf[SPAWN_CURSOR]
    if spawned >= state.layout.task_count:
        return False
    if RUNNING in buf[tasks + T_STATE:tasks + spawned * TASK_WIDTH:TASK_WIDTH]:
        return True
    return state.all_tasks_terminal()


def oracle_worker_action(state: KernelState, core_id: int) -> str | None:
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


def oracle_check_invariants(state: KernelState) -> str | None:
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


# The message of each check, without its numbers, in check order.
MESSAGES = (
    "run queue over capacity", "duplicate task ids in run queue", "in_queue=",
    "counter below zero", "cores share a current task", "primary core has a current task",
    "is not current on any core", "is queued or current",
    "more than one preemption decision outstanding", "preempt_in_flight flag out of sync",
    "observed by a preemption decision",
)


def outcome(fn, state: KernelState) -> tuple:
    try:
        return "returns", fn(state)
    except Exception as exc:  # an exception is an answer too, and must match
        return "raises", type(exc).__name__, str(exc)


def assert_same(state: KernelState) -> str | None:
    """Both forms of both functions agree on `state`; returns the failure."""
    failure = outcome(check_invariants, state)
    assert failure == outcome(oracle_check_invariants, state), list(state.buf)
    assert outcome(enabled, state) == outcome(oracle_enabled, state), list(state.buf)
    return failure[1] if failure[0] == "returns" else None


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
        seen.append(KernelState(config, state.layout, state.buf[:]))
        return settle(state)

    settle = explorer._settle
    with monkeypatch.context() as patch:
        patch.setattr(explorer, "_settle", recording)
        explore(config, explorer.Limits(max_violations=10**9))
    return seen


def walk_states(config: KernelConfig, seed: int) -> list[KernelState]:
    """The states of one seeded walk, as `random_walk` steps them."""
    rng = random.Random(seed)
    state = initial_state(config)
    out = []
    while True:
        out.append(KernelState(config, state.layout, state.buf[:]))
        verdict, _, options = _settle(state)
        if verdict is not None or not options:
            return out
        _run(state, options[rng.randrange(len(options))])


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
            count += 1
    assert count > 32 * 100


@pytest.fixture(scope="module")
def walked() -> list[KernelState]:
    return [state for config in WALK_CONFIGS.values() for seed in WALK_SEEDS
            for state in walk_states(config, seed)]


def test_every_walk_state_agrees(walked):
    assert len(walked) > 2000
    failures = {assert_same(state) for state in walked}
    assert failures == {None}


def domains(config: KernelConfig) -> dict[int, range]:
    """Per cell that settling reads, the values of its field's domain:
    flags 0 or 1, task ids (-1 for none), state codes, budgets down to an
    overrun of -1, handler phases (-1 for none), the cursor and the queue
    length up to one past capacity."""
    layout = layout_for(config)
    n = layout.task_count
    ids, flags = range(-1, n), range(2)
    budget = range(-1, max(config.max_waits_per_task, config.max_preemptions_per_task) + 1)
    out = {IN_FLIGHT: flags, SPAWN_CURSOR: range(n + 1), QUEUE_LEN: range(n + 2)}
    out.update(dict.fromkeys(range(QUEUE, layout.tasks), range(n)))
    for at in range(layout.tasks, layout.cores, TASK_WIDTH):
        out.update({at + T_STATE: range(5), at + T_IN_QUEUE: flags, at + T_WAITS: budget,
                    at + T_PREEMPTIONS: budget, at + T_TIMER: flags})
    for at in range(layout.cores, layout.monitors, CORE_WIDTH):
        out.update({at + C_CURRENT: ids, at + C_PENDING_IPI: ids, at + C_IPI_PHASE: range(-1, 3),
                    at + C_DECISION: ids})
    assert sorted(out) == sorted(layout.settle_offsets)
    return out


def test_single_cell_mutations_agree_and_reach_every_message(walked):
    sample = random.Random(19).sample(walked, 60)
    reached = set()
    mutants = 0
    for state in sample:
        for at, values in domains(state.config).items():
            for value in values:
                if value == state.buf[at]:
                    continue
                mutant = KernelState(state.config, state.layout, state.buf[:])
                mutant.buf[at] = value
                failure = assert_same(mutant)
                mutants += 1
                if failure is not None:
                    reached.add(next(m for m in MESSAGES if m in failure))
    assert mutants > 10_000
    assert reached == set(MESSAGES)
