"""`explore` takes each successor from the transition memo: a dict from
each step to its trie, keyed by the bytes of the cells that the step's
runs read, whose leaves hold the step's writes as a keep mask and put
bits, and its monitor violation. Its BFS loop walks the tries itself;
`explorer._transition` is the same walk as a function, which finding a
trace's steps and the depth-limit probe call, and so every edge of the
search's parent map must be one step of `_transition`. Over every
reachable (state, enabled step) of the settle-projection configs, the memo
must agree with running the operation (`_apply`), on misses and on hits.
And a leaf may depend on no byte off its path: with every other byte
scrambled, the trie must return the same leaf, and the operation must make
the writes that the leaf's mask and bits make, and its violation. A step
reads only the cells its effect needs, so that paths stay short: a timer
variant no timer flag past its task, a preemption decision no decision
cell and no core past its candidate, and an enqueue no queue slot. `explore` also
finds its traces' steps through the search's own tries, so it learns each
step into one trie, and `replay` uses no memo. The fix and fault toggles
are cells of the state, so the searches of every combo of a plan share the
memos: in either order, each must print the report that a search from empty
memos prints, and no leaf may write a toggle."""

from __future__ import annotations

import random
from array import array
from sys import byteorder

import pytest

from schedcheck import explorer
from schedcheck.cli import emit_json, report_to_doc
from schedcheck.explorer import Limits, _apply, _Recorder, _run, _transition, explore
from schedcheck.model import (
    C_CURRENT, C_DECISION, FAULTS, FIX_WAIT, IN_FLIGHT, QUEUE, QUEUE_LEN, SPAWN_CURSOR,
    T_IN_QUEUE, T_TIMER, KernelConfig, KernelState, TaskKind, layout_for, symmetric_key,
)
from cells import core_cell, task_cell
from test_dead_fields import COMBOS, PLANS, config_for
from test_settle_projection import CONFIGS, _reachable


def _effect(succ: KernelState) -> tuple:
    """The successor's bytes and violation of one `_apply`."""
    return bytes(succ.buf), succ.violation


def _walk(root: list, raw: bytes) -> tuple[list[int], object]:
    """The byte offsets that `raw` reads on its way down the trie, and where
    it ends."""
    node, path = root, []
    while type(node) is list:
        path.append(node[0])
        node = node[1].get(raw[node[0]])
    return path, node


@pytest.mark.parametrize(
    "config", CONFIGS,
    ids=lambda c: f"{','.join(k.value for k in c.task_plan)}/{c.worker_count}"
    f"-w{int(c.fix_wait_need_sched)}p{int(c.fix_preempt_need_sched)}"
    f"-{''.join(str(int(f in c.faults)) for f in sorted(FAULTS))}",
)
def test_memo_agrees_with_the_operations_off_its_paths_too(config):
    roots: dict = {}
    cases = [(state, choice, _effect(_apply(state, choice)))
             for state, (_, _, options) in _reachable(config) for choice in options]
    for _ in range(2):  # the first pass fills the memo, the second only hits it
        for state, choice, effect in cases:
            raw = bytes(state.buf)
            number = int.from_bytes(raw, byteorder)
            succ, leaf = _transition(state.layout, raw, number, choice, roots)
            assert (succ, leaf[2]) == effect

    # whole bytes, so a trie that skipped a byte of a two-byte cell would
    # hand its leaf to a state whose cell differs
    rng = random.Random(11)
    typecode, size = cases[0][0].buf.typecode, len(bytes(cases[0][0].buf))
    noise = [bytes(rng.choices(range(256), k=size)) for _ in range(97)]
    for k, (state, choice, _) in enumerate(cases):
        raw = bytes(state.buf)
        root = roots[choice]
        path, leaf = _walk(root, raw)
        scrambled = bytearray(noise[k % len(noise)])
        for at in path:
            scrambled[at] = raw[at]
        assert _walk(root, scrambled)[1] is leaf
        keep, put, violation = leaf
        expected = (int.from_bytes(scrambled, byteorder) & keep | put).to_bytes(size, byteorder)
        succ = _apply(KernelState(state.layout, array(typecode, scrambled)), choice)
        assert (expected, violation) == _effect(succ), (choice, list(state.buf))


def _recorded(state: KernelState) -> tuple[KernelState, _Recorder]:
    """A copy of `state` on a recorder, as `_learn` runs a step."""
    recorder = _Recorder(state.buf[:])
    return KernelState(state.layout, recorder), recorder


@pytest.mark.parametrize("config", [
    KernelConfig(worker_count=2, task_plan=(TaskKind.HEAVY, TaskKind.HEAVY)),
    KernelConfig(worker_count=3, task_plan=(TaskKind.HEAVY, TaskKind.HEAVY, TaskKind.LIGHT),
                 fix_wait_need_sched=False, faults=frozenset({"enqueue-before-state"})),
], ids=["H,H/2", "H,H,L/3-w-ebs"])
def test_steps_read_only_the_cells_their_effect_needs(config):
    # on every settled state: the k-th timer variant reads no timer flag
    # after the k-th pending entry's task; a preemption decision reads no
    # core's decision cell and no worker core after its candidate; an
    # enqueue reads no queue slot
    seen = {"timer": set(), "decide": set(), "enqueue": set()}
    for state, (verdict, _, options) in _reachable(config):
        if verdict is not None:
            continue
        timers = state.fireable_timers()
        candidates = state.preempt_candidates()
        for choice in options:
            kind, _, variant = choice
            if kind == "PrimaryTimer":
                after = {task_cell(state, t, T_TIMER)
                         for t in range(timers[variant] + 1, state.layout.task_count)}
            elif kind == "PrimaryPreempter" and not state.buf[IN_FLIGHT]:
                after = {core_cell(state, core, C_DECISION)
                         for core in range(state.layout.core_count)}
                after |= {core_cell(state, core, C_CURRENT)
                          for core in range(candidates[variant] + 1, state.layout.core_count)}
            else:
                continue
            recorded, recorder = _recorded(state)
            _run(recorded, choice)
            assert not after & set(recorder.reads), (choice, list(state.buf))
            seen["timer" if kind == "PrimaryTimer" else "decide"].add(variant)
        slots = set(range(QUEUE, QUEUE + state.layout.task_count))
        for task in range(state.buf[SPAWN_CURSOR]):
            if not state.buf[task_cell(state, task, T_IN_QUEUE)]:
                recorded, recorder = _recorded(state)
                recorded._enqueue(task)
                assert not slots & set(recorder.reads), (task, list(state.buf))
                seen["enqueue"].add(state.buf[QUEUE_LEN])
    assert all({0, 1} <= variants for variants in seen.values()), seen


@pytest.mark.usefixtures("cold_memos")  # a warm plan's search may learn nothing
def test_explore_learns_each_step_into_one_trie(monkeypatch):
    # a trace that learned into tries of its own would re-run operations
    # that the search has already run. Finding a trace's steps walks the
    # real path, a renaming of the search's at each depth, so it could miss
    # a trie; on this config it runs no operation at all
    tries: dict = {}
    finding = []
    learn, steps_to = explorer._learn, explorer._steps_to

    def spying(config, raw, choice, root):
        assert not finding, "finding a trace's steps ran an operation"
        tries.setdefault(choice, []).append(root)  # kept, so no id is reused
        return learn(config, raw, choice, root)

    def tracing(*args):
        finding.append(True)
        try:
            return steps_to(*args)
        finally:
            finding.pop()

    monkeypatch.setattr(explorer, "_learn", spying)
    monkeypatch.setattr(explorer, "_steps_to", tracing)
    config = KernelConfig(worker_count=2, task_plan=(TaskKind.HEAVY, TaskKind.LIGHT),
                          fix_wait_need_sched=False, fix_preempt_need_sched=False)
    report = explore(config, Limits(max_violations=10**9))
    assert len(report.violations) > 1
    distinct = {choice: len({id(root) for root in roots}) for choice, roots in tries.items()}
    assert set(distinct.values()) == {1}, distinct


@pytest.mark.parametrize("config", [
    KernelConfig(worker_count=2, task_plan=(TaskKind.HEAVY, TaskKind.LIGHT, TaskKind.LIGHT),
                 fix_wait_need_sched=False),
    KernelConfig(worker_count=2, task_plan=(TaskKind.HEAVY, TaskKind.HEAVY),
                 faults=frozenset({"enqueue-before-state", "skip-running-check"})),
], ids=["H,L,L/2-w", "H,H/2-ebs+src"])
def test_every_edge_of_the_search_is_a_step_of_transition(config, monkeypatch):
    # the loop's inline walk, held to `_transition` from empty tries on
    # every edge of the parent map, not only on the states of a trace
    captured = []
    steps_to = explorer._steps_to

    def capturing(layout, init, key, parents, settle, roots):
        captured.append(parents)
        return steps_to(layout, init, key, parents, settle, roots)

    monkeypatch.setattr(explorer, "_steps_to", capturing)
    report = explore(config, Limits(max_violations=10**9))
    assert report.violations and not report.incomplete
    parents = captured[0]
    assert len(parents) == report.states_visited
    layout = layout_for(config)
    settle, roots = explorer._settler(layout), {}
    for key, parent in parents.items():
        if parent is None:
            continue
        number = int.from_bytes(parent, byteorder)
        assert any(
            symmetric_key(_transition(layout, parent, number, choice, roots)[0], layout) == key
            for choice in settle(parent, None, number)[2]), (parent, key)


def test_replay_steps_without_the_memos(monkeypatch):
    # replay executes each operation directly, and settles without the
    # memo: with the memos refused, each trace's steps reach the class that
    # the search recorded through its memos
    config = KernelConfig(worker_count=2, task_plan=(TaskKind.HEAVY, TaskKind.HEAVY),
                          fix_wait_need_sched=False, fix_preempt_need_sched=False,
                          faults=frozenset({"enqueue-before-state", "skip-running-check"}))
    recorded = []
    classify = explorer.violation_class

    def recording(*args):
        recorded.append(kind := classify(*args))
        return kind

    monkeypatch.setattr(explorer, "violation_class", recording)
    report = explore(config, Limits(max_violations=10**9))
    monkeypatch.undo()
    classes = list(dict.fromkeys(recorded))  # in the order the search met them
    assert len(classes) == len(report.violations) > 1

    def refused(*args):
        raise AssertionError("replay used a memo")

    for name in ("_learn", "_transition", "_settler"):
        monkeypatch.setattr(explorer, name, refused)
    for trace, kind in zip(report.violations, classes):
        replayed = explorer.replay(config, trace.steps)
        assert classify(config, replayed.verdict, replayed.monitor_error,
                        replayed.detail) == kind


def _json(config: KernelConfig) -> str:
    """The JSON report of a complete search under `config`."""
    return emit_json(report_to_doc(explore(config, Limits(max_violations=10**9)), "explore"))


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_every_combo_of_a_plan_shares_the_memos_soundly(plan, monkeypatch):
    configs = [config_for(plan, *combo) for combo in COMBOS]
    fresh = explorer._plan_memos.__wrapped__
    monkeypatch.setattr(explorer, "_plan_memos", fresh)
    cold = {config: _json(config) for config in configs}
    shared = fresh(layout_for(configs[0]))
    monkeypatch.setattr(explorer, "_plan_memos", lambda layout: shared)
    for order in (configs, configs[::-1]):  # learning, then served what the others learned
        for config in order:
            assert _json(config) == cold[config], config

    # the toggles' byte offsets, and those the tries read
    boot = layout_for(configs[0]).boot
    toggles = set(range(FIX_WAIT * boot.itemsize, IN_FLIGHT * boot.itemsize))
    read, size = set(), len(bytes(boot))
    nodes = list(shared[0].values())
    while nodes:
        node = nodes.pop()
        if type(node) is list:
            read.add(node[0])
            nodes.extend(node[1].values())
        else:
            kept = node[0].to_bytes(size, byteorder)
            assert all(kept[at] == 0xFF for at in toggles), node  # no toggle written
    assert toggles <= read  # the tries tell the combos apart by their cells
