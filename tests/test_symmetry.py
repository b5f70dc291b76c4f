"""Task and worker symmetry: `explore` keys its visited set by
`model.symmetric_key`, which renames the spawned tasks of each kind and
the identical worker cores. It must reach the same verdicts as the search
keyed by a reference key, which these tests restore by monkeypatching
`explorer.symmetric_key`: the worker-only key (`worker_key` below, the key
before tasks were renamed), and the exact `snapshot`. The key itself is
checked against a canonical form written out cell by cell (`least_key`),
and `explore` must settle and expand only keys."""

from __future__ import annotations

import itertools
import random
import re
from sys import byteorder

import pytest

from cells import core_cell, task_cell
from schedcheck import explorer, model
from schedcheck.explorer import Limits, _run, _settle, enabled, explore, random_walk, replay
from schedcheck.model import (
    C_CURRENT,
    C_DECISION,
    CORE_WIDTH,
    QUEUE,
    QUEUE_LEN,
    SPAWN_CURSOR,
    TASK_WIDTH,
    KernelConfig,
    KernelState,
    TaskKind,
    initial_state,
    layout_for,
    snapshot,
    symmetric_key,
)

H = TaskKind.HEAVY
L = TaskKind.LIGHT

EBS, SRS, SRC = "enqueue-before-state", "skip-resume-state", "skip-running-check"
FAULTS = (EBS, SRS, SRC)

ALL_COMBOS = tuple(
    (fix_wait, fix_preempt, faults)
    for fix_wait, fix_preempt in itertools.product((True, False), repeat=2)
    for k in range(len(FAULTS) + 1)
    for faults in itertools.combinations(FAULTS, k)
)
# The benchmark's fault matrix: every toggle both ways, each documented race.
BENCH_COMBOS = (
    (False, True, ()),
    (True, False, ()),
    (True, False, (EBS, SRC)),
    (False, False, (EBS, SRC)),
    (True, True, (SRS,)),
    (True, True, (EBS, SRC)),
    (False, False, (EBS, SRS, SRC)),
    (True, True, ()),
)
CLEAN = ((True, True, ()),)
# (task plan, workers, waits, preemptions) and the combos searched on it.
PLANS = (
    ((H, L), 2, 1, 1, ALL_COMBOS),
    ((H, H), 2, 0, 2, ALL_COMBOS),
    ((H, L), 3, 1, 1, BENCH_COMBOS),
    ((H, H), 2, 1, 2, CLEAN),
    ((H, L, L), 3, 1, 2, CLEAN),
)
CASES = [(plan, workers, waits, preemptions, combo)
         for plan, workers, waits, preemptions, combos in PLANS for combo in combos]
# The plans on which task renaming is guarded against the worker-only key.
TASK_PLANS = (((H, H), 2, 1, 1, ALL_COMBOS), ((H, H, L), 2, 1, 1, BENCH_COMBOS))
TASK_CASES = [(plan, workers, waits, preemptions, combo)
              for plan, workers, waits, preemptions, combos in TASK_PLANS for combo in combos]

WALK_CONFIG = KernelConfig(worker_count=4, task_plan=(H, H, H, H, L, L, L, L),
                           max_waits_per_task=3, max_preemptions_per_task=3)


def worker_key(raw: bytes, layout) -> bytes:
    """The reference key that renames only the workers: `raw` with the
    records of workers 1..w sorted as byte strings."""
    head, *records = layout.worker_cut(raw)
    ordered = sorted(records)
    return raw if ordered == records else b"".join((head, *ordered))


def config_for(plan, workers, waits, preemptions, combo) -> KernelConfig:
    fix_wait, fix_preempt, faults = combo
    return KernelConfig(
        worker_count=workers,
        task_plan=plan,
        fix_wait_need_sched=fix_wait,
        fix_preempt_need_sched=fix_preempt,
        faults=frozenset(faults),
        max_waits_per_task=waits,
        max_preemptions_per_task=preemptions,
    )


def outcome(report: explorer.ExplorationReport):
    """What a reduction must keep: the (verdict, monitor current state,
    symbol, task kind) set, with the detail, numbers masked, in place of
    the kind for invariant and deadlock verdicts; the offending (monitor
    state, symbol, task kind) triples; whether some path ends quiescent;
    and the completeness flags."""
    found, pairs = set(), set()
    for trace in report.violations:
        err = trace.monitor_error
        if err is None:
            found.add((trace.verdict, None, None, re.sub(r"\d+", "#", trace.detail)))
        else:
            kind = report.config.task_plan[err.task].value  # a renaming keeps only the kind
            found.add((trace.verdict, str(err.current_state), err.symbol.value, kind))
            pairs.add((str(err.current_state), err.symbol.value, kind))
    return (found, pairs, report.quiescent_ok > 0, report.incomplete,
            report.all_paths_terminal_ok)


def case_id(case) -> str:
    plan, workers, waits, preemptions, (fix_wait, fix_preempt, faults) = case
    return (f"{','.join(k.value for k in plan)}/{workers}/w{waits}p{preemptions}"
            f"-{'W' if fix_wait else 'w'}{'P' if fix_preempt else 'p'}"
            f"-{'+'.join(faults) or 'none'}")


def reduced_and_reference(config: KernelConfig, monkeypatch, reference):
    """The search under `symmetric_key`, every trace of which replays, and
    the search with `reference` patched in as the key."""
    limits = Limits(max_violations=10**9)
    reduced = explore(config, limits)
    for trace in reduced.violations:
        assert replay(config, trace.steps) == trace
    keys = 0

    def counted(raw, layout):
        nonlocal keys
        keys += 1
        return reference(raw, layout)

    monkeypatch.setattr(explorer, "symmetric_key", counted)
    full = explore(config, limits)
    assert keys > 0, "explore did not key its visited set by explorer.symmetric_key"
    return reduced, full


@pytest.mark.parametrize("case", TASK_CASES, ids=case_id)
def test_task_renaming_reaches_the_worker_only_verdicts(case, monkeypatch):
    reduced, full = reduced_and_reference(config_for(*case), monkeypatch, worker_key)
    assert outcome(reduced) == outcome(full)
    # every plan here has two heavy tasks, whose renamings the key merges
    assert reduced.states_visited < full.states_visited


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reduced_search_reaches_the_full_search_verdicts(case, monkeypatch):
    reduced, full = reduced_and_reference(
        config_for(*case), monkeypatch, lambda raw, layout: raw)  # snapshot's key
    assert outcome(reduced) == outcome(full)
    assert reduced.states_visited <= full.states_visited


@pytest.mark.parametrize("config", [
    KernelConfig(worker_count=2, task_plan=(H, H)),
    KernelConfig(worker_count=3, task_plan=(H, L, L), fix_preempt_need_sched=False),
    KernelConfig(worker_count=2, task_plan=(H, H, L), fix_wait_need_sched=False,
                 faults=frozenset({EBS, SRC})),
], ids=["H,H/2", "H,L,L/3-p", "H,H,L/2-w-ebs+src"])
def test_explore_settles_and_expands_only_keys(config, monkeypatch):
    # every state that the search settles, and so every one it expands,
    # is its own key; finding a trace's steps settles the states of the
    # real path, which need not be
    settler, steps_to = explorer._settler, explorer._steps_to
    settled, finding = [], []

    def spying(layout):
        settle = settler(layout)

        def spy(raw, violation, number):
            if not finding:
                settled.append(raw)
                # the search hands each state's number to its settle
                assert number == int.from_bytes(raw, byteorder), raw
            return settle(raw, violation, number)

        return spy

    def tracing(*args):
        finding.append(True)
        try:
            return steps_to(*args)
        finally:
            finding.pop()

    monkeypatch.setattr(explorer, "_settler", spying)
    monkeypatch.setattr(explorer, "_steps_to", tracing)
    report = explore(config, Limits(max_violations=10**9))
    assert len(settled) == report.states_visited
    layout = layout_for(config)
    for raw in settled:
        assert symmetric_key(raw, layout) is raw


# -- the key ----------------------------------------------------------------


def renamed(state: KernelState, tasks: dict[int, int], workers: tuple[int, ...]) -> KernelState:
    """Reference renaming, one cell at a time: task tasks[t] becomes task t
    (ids missing from `tasks` stay), and worker workers[k] becomes worker
    k + 1. A task record moves whole; the ids in the live queue slots and
    in each core's current task and decision are renamed; no other cell
    holds a task id, and none holds a worker id."""
    image = KernelState(state.layout, state.buf[:])
    src, buf = state.buf, image.buf
    new_id = {old: new for new, old in tasks.items()}

    def rename(task: int) -> int:
        return new_id.get(task, task) if task >= 0 else task

    for new, old in tasks.items():
        at, src_at = task_cell(image, new, 0), task_cell(state, old, 0)
        buf[at:at + TASK_WIDTH] = src[src_at:src_at + TASK_WIDTH]
    for at in range(QUEUE, QUEUE + src[QUEUE_LEN]):
        buf[at] = rename(src[at])
    for core, old_core in enumerate((0, *workers)):
        for field in range(CORE_WIDTH):
            value = src[core_cell(state, old_core, field)]
            buf[core_cell(image, core, field)] = (
                rename(value) if field in (C_CURRENT, C_DECISION) else value)
    return image


def kind_permutations(state: KernelState):
    """Every renaming of the spawned tasks of each kind, as new id -> old id."""
    spawned = range(state.buf[SPAWN_CURSOR])
    groups = [[t for t in spawned if state.layout.heavy[t] is kind] for kind in (True, False)]
    for orders in itertools.product(*map(itertools.permutations, groups)):
        yield {new: old for group, order in zip(groups, orders) for new, old in zip(group, order)}


def records_of(state: KernelState) -> list[tuple[bool, bytes]]:
    """The kind and record bytes of each spawned task, by id."""
    raw, size = bytes(state.buf), TASK_WIDTH * state.buf.itemsize
    return [(state.layout.heavy[t], raw[task_cell(state, t, 0) * state.buf.itemsize:][:size])
            for t in range(state.buf[SPAWN_CURSOR])]


def records_tie(state: KernelState) -> bool:
    """Whether two spawned tasks of one kind have equal records."""
    records = records_of(state)
    return len(set(records)) < len(records)


def least_key(state: KernelState) -> bytes:
    """The reference key: of the labelings that put the spawned records of
    each kind in descending byte order, the one whose bytes, with the
    workers sorted, are least."""
    records = records_of(state)
    pairs = [(a, b) for a, b in itertools.combinations(range(len(records)), 2)
             if records[a][0] is records[b][0]]
    workers = tuple(range(1, state.layout.core_count))
    return min(worker_key(snapshot(renamed(state, tasks, workers)), state.layout)
               for tasks in kind_permutations(state)  # new id -> old id
               if all(records[tasks[a]] >= records[tasks[b]] for a, b in pairs))


def key_of(state: KernelState) -> bytes:
    return symmetric_key(bytes(state.buf), state.layout)


def assert_key_is_canonical(state: KernelState) -> bytes:
    """Every renaming of `state`, of its same-kind tasks and of its
    workers, gets one key, which is `least_key(state)`; the key is its own
    key, and is `raw` itself when `raw` is already the key. Returns the
    key."""
    raw = bytes(state.buf)
    key = symmetric_key(raw, state.layout)
    assert key == least_key(state)
    assert symmetric_key(key, state.layout) == key
    assert key is raw or key != raw
    workers = list(itertools.permutations(range(1, state.layout.core_count)))
    assert {key_of(renamed(state, tasks, order))
            for tasks in kind_permutations(state) for order in workers} == {key}
    return key


@pytest.mark.parametrize("config,typecode", [
    (KernelConfig(worker_count=3, task_plan=(H, L), max_waits_per_task=0), "b"),
    (KernelConfig(worker_count=2, task_plan=(H, H), max_waits_per_task=0,
                  faults=frozenset({EBS})), "b"),
    (KernelConfig(worker_count=2, task_plan=(H, L, L), max_waits_per_task=0), "b"),
    # 2 + 2 x 70 script positions need two-byte cells, whose workers the key
    # renames; with no preemption the search stays at a few thousand states
    (KernelConfig(worker_count=2, task_plan=(H, L), max_waits_per_task=70,
                  max_preemptions_per_task=0), "h"),
], ids=["H,L/3-w0", "H,H/2-w0-ebs", "H,L,L/2-w0", "H,L/2-w70p0-h"])
def test_key_is_one_renaming_of_the_state(config, typecode):
    # over every reachable state, and for each state over every renaming of
    # its same-kind tasks and its workers
    init = initial_state(config)
    assert init.layout.boot.typecode == typecode
    seen, frontier, renamings = {snapshot(init)}, [init], set()
    while frontier:
        state = frontier.pop()
        raw = bytes(state.buf)
        key = assert_key_is_canonical(state)
        if key != raw:
            renamings.add("tasks" if key != worker_key(raw, state.layout) else "workers")
        for choice in enabled(state):
            succ = explorer._apply(state, choice)
            exact = snapshot(succ)
            if exact not in seen and succ.violation is None:
                seen.add(exact)
                frontier.append(succ)
    same_kind = len(set(config.task_plan)) < len(config.task_plan)
    assert renamings == ({"tasks", "workers"} if same_kind else {"workers"})


def walk_sample(config: KernelConfig, seeds: range, per_walk: int) -> list[KernelState]:
    """`per_walk` states of each seeded walk, spread along it."""
    out = []
    for seed in seeds:
        rng, state, states = random.Random(seed), initial_state(config), []
        verdict, _, options = _settle(state)
        while verdict is None and options:
            _run(state, options[rng.randrange(len(options))])
            states.append(KernelState(state.layout, state.buf[:]))
            verdict, _, options = _settle(state)
        out += states[::max(1, len(states) // per_walk)][:per_walk]
    return out


def test_key_merges_the_renamings_of_walk_states():
    # The benchmark's walk configuration: four tasks of each kind and four
    # workers. A random sample of renamings per state, since a state with
    # every task spawned has 4! x 4! x 4! of them.
    rng = random.Random(21)
    assert layout_for(WALK_CONFIG).boot.typecode == "b"
    states = walk_sample(WALK_CONFIG, range(12), 10)
    renamed_keys = tied = 0
    for state in states:
        raw = bytes(state.buf)
        key = symmetric_key(raw, state.layout)
        assert key == least_key(state)
        assert symmetric_key(key, state.layout) == key
        tasks, workers = list(kind_permutations(state)), list(itertools.permutations(range(1, 5)))
        images = [renamed(state, rng.choice(tasks), rng.choice(workers)) for _ in range(12)]
        assert {key_of(image) for image in images} == {key}
        tied += records_tie(state)
        renamed_keys += key[:state.layout.cores] != raw[:state.layout.cores]
    assert len(states) == 120
    assert tied >= 30 and renamed_keys >= 30


def test_an_ordered_state_is_its_own_key():
    state = initial_state(KernelConfig(worker_count=2, task_plan=(H, H)))
    state.get_next_task(1)
    state.spawn_next()  # running task 0 ranks above runnable task 1
    raw = bytes(state.buf)
    assert symmetric_key(raw, state.layout) is raw
    state.get_next_task(2)  # both run from pc 0: tied records
    raw = bytes(state.buf)
    assert symmetric_key(raw, state.layout) is raw
    state.poll_step(2)  # task 1 computes ahead of task 0
    raw = bytes(state.buf)
    key = symmetric_key(raw, state.layout)
    assert key != raw and symmetric_key(key, state.layout) is key
    # task 1 becomes task 0, and its worker 2 sorts first
    assert key == snapshot(renamed(state, {0: 1, 1: 0}, (2, 1)))


def test_configs_of_a_plan_share_the_key_caches(monkeypatch):
    # symmetric_key's caches belong to the plan's one Layout, whatever the
    # toggles: a search must not depend on which config filled them first
    configs = [KernelConfig(worker_count=2, task_plan=(H, H, L), faults=faults,
                            fix_preempt_need_sched=fix_preempt, max_waits_per_task=0)
               for fix_preempt, faults in ((True, frozenset()), (False, frozenset()),
                                           (True, frozenset({EBS, SRC})))]
    assert len({id(layout_for(config).renames) for config in configs}) == 1
    searches = []
    for order in (configs, configs[::-1]):
        monkeypatch.setattr(model, "_layouts", {})  # a new Layout: empty caches and memos
        searches.append({config: explore(config, Limits(max_violations=10**9))
                         for config in order})
    assert searches[0] == searches[1]


def test_h_layouts_get_the_worker_only_key(monkeypatch):
    # 2 + 2 x 70 script positions need two-byte cells, which byte
    # `translate` cannot rename: the key leaves the tasks alone
    for plan, workers in (((H, L), 1), ((H, H), 2)):
        config = KernelConfig(worker_count=workers, task_plan=plan, max_waits_per_task=70,
                              max_preemptions_per_task=0)
        layout = layout_for(config)
        assert layout.boot.typecode == "h" and layout.renames is None
        limits = Limits(max_states=3000)
        report = explore(config, limits)
        calls = 0

        def checked(raw, layout):
            nonlocal calls
            calls += 1
            key = worker_key(raw, layout)
            assert symmetric_key(raw, layout) == key
            return key

        with monkeypatch.context() as patch:
            patch.setattr(explorer, "symmetric_key", checked)
            assert explore(config, limits) == report
        assert calls > 1000


def test_one_worker_key_is_the_snapshot():
    state, steps = initial_state(KernelConfig(worker_count=1, task_plan=(H, L))), 0
    while options := enabled(state):
        state = explorer._apply(state, options[-1])
        assert symmetric_key(bytes(state.buf), state.layout) == snapshot(state)
        steps += 1
    assert steps > 5


def test_monitor_violation_class_names_the_task_kind():
    config = KernelConfig(worker_count=2, task_plan=(H, L, L), fix_preempt_need_sched=False)
    report = explore(config, Limits(max_violations=10**9))
    classes = [explorer.violation_class(config, t.verdict, t.monitor_error, t.detail)
               for t in report.violations if t.monitor_error is not None]
    assert classes and all(kind in ("H", "L") for _, kind, _, _ in classes)
    assert len(set(classes)) == len(classes)


def test_walks_count_exact_states(monkeypatch):
    # the key saves a walk nothing, since a walk rarely revisits a state
    def not_in_walks(buf, layout):
        raise AssertionError("random_walk called symmetric_key")

    monkeypatch.setattr(explorer, "symmetric_key", not_in_walks)
    config = KernelConfig(worker_count=3, task_plan=(H, H, L))
    assert random_walk(config, 1, 1000).states_visited > 1
