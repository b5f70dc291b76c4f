"""Worker-core symmetry: `explore` keys its visited set by
`model.symmetric_key`, and must reach the same verdicts as the search
keyed by the exact `snapshot`, which these tests restore as the reference
by monkeypatching `explorer.symmetric_key`."""

from __future__ import annotations

import itertools

import pytest

from cells import core_cell
from schedcheck import explorer
from schedcheck.explorer import Limits, enabled, explore, random_walk
from schedcheck.model import (
    CORE_WIDTH,
    KernelConfig,
    KernelState,
    TaskKind,
    initial_state,
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
    symbol, task) set, deadlock presence, and the completeness flags."""
    found = set()
    for trace in report.violations:
        err = trace.monitor_error
        found.add((trace.verdict, None, None, None) if err is None else
                  (trace.verdict, str(err.current_state), err.symbol.value, err.task))
    deadlock = any(t.verdict == explorer.VERDICT_DEADLOCK for t in report.violations)
    return found, deadlock, report.incomplete, report.all_paths_terminal_ok


def case_id(case) -> str:
    plan, workers, waits, preemptions, (fix_wait, fix_preempt, faults) = case
    return (f"{','.join(k.value for k in plan)}/{workers}/w{waits}p{preemptions}"
            f"-{'W' if fix_wait else 'w'}{'P' if fix_preempt else 'p'}"
            f"-{'+'.join(faults) or 'none'}")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reduced_search_reaches_the_full_search_verdicts(case, monkeypatch):
    config = config_for(*case)
    limits = Limits(max_violations=10**9)
    reduced = explore(config, limits)
    keys = 0

    def exact_key(buf, layout):
        nonlocal keys
        keys += 1
        return bytes(buf)  # snapshot's key

    monkeypatch.setattr(explorer, "symmetric_key", exact_key)
    full = explore(config, limits)
    assert keys > 0, "explore did not key its visited set by explorer.symmetric_key"
    assert outcome(reduced) == outcome(full)
    assert reduced.states_visited <= full.states_visited


def renamed(state: KernelState, order: tuple[int, ...]) -> KernelState:
    """Reference renaming, one core record at a time: worker order[k]
    becomes worker k + 1. No other field names a worker."""
    image = state.clone()
    for new, old in enumerate(order, 1):
        src, dst = core_cell(state, old, 0), core_cell(image, new, 0)
        image.buf[dst:dst + CORE_WIDTH] = state.buf[src:src + CORE_WIDTH]
    return image


@pytest.mark.parametrize("config,typecode", [
    (KernelConfig(worker_count=3, task_plan=(H, L), max_waits_per_task=0), "b"),
    (KernelConfig(worker_count=2, task_plan=(H, H), max_waits_per_task=0,
                  faults=frozenset({EBS})), "b"),
    # 2 + 2 x 70 script positions need two-byte cells; with no preemption
    # the search stays at a few thousand states
    (KernelConfig(worker_count=2, task_plan=(H, L), max_waits_per_task=70,
                  max_preemptions_per_task=0), "h"),
], ids=["H,L/3-w0", "H,H/2-w0-ebs", "H,L/2-w70p0-h"])
def test_key_is_one_renaming_of_the_state(config, typecode):
    # over every reachable state, the key is the bytes of the state renamed
    # by some permutation of its workers, every renaming gets that same
    # key, a key is its own key (explore looks the bytes up first), and
    # states already in order keep their bytes object
    orders = list(itertools.permutations(range(1, config.worker_count + 1)))
    init = initial_state(config)
    assert init.layout.boot.typecode == typecode
    seen, frontier, renamings = {snapshot(init)}, [init], 0
    while frontier:
        state = frontier.pop()
        raw = bytes(state.buf)
        key = symmetric_key(raw, state.layout)
        images = [renamed(state, order) for order in orders]
        assert key in {snapshot(image) for image in images}
        assert {symmetric_key(bytes(image.buf), image.layout) for image in images} == {key}
        assert symmetric_key(key, state.layout) == key
        assert key is raw or key != raw
        renamings += key != snapshot(state)
        for choice in enabled(state):
            succ = explorer._apply(state, choice)
            exact = snapshot(succ)
            if exact not in seen and succ.violation is None:
                seen.add(exact)
                frontier.append(succ)
    assert renamings > 0
    assert snapshot(renamed(init, orders[0])) == snapshot(init)


def test_one_worker_key_is_the_snapshot():
    state, steps = initial_state(KernelConfig(worker_count=1, task_plan=(H, L))), 0
    while options := enabled(state):
        state = explorer._apply(state, options[-1])
        assert symmetric_key(bytes(state.buf), state.layout) == snapshot(state)
        steps += 1
    assert steps > 5


def test_walks_count_exact_states(monkeypatch):
    # the key saves a walk nothing, since a walk rarely revisits a state
    def not_in_walks(buf, layout):
        raise AssertionError("random_walk called symmetric_key")

    monkeypatch.setattr(explorer, "symmetric_key", not_in_walks)
    config = KernelConfig(worker_count=3, task_plan=(H, H, L))
    assert random_walk(config, 1, 1000).states_visited > 1
