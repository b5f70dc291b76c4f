"""`random_walk` keeps only its schedule and snapshots: a clean walk builds
no step annotation and renders no step label or monitor line, and a walk
that ends in a verdict gets its trace from `replay`, so walks and replays
build traces one way, and only `replay` renders."""

from __future__ import annotations

import random

import pytest

from schedcheck import explorer
from schedcheck.explorer import _apply, _settle, explore, random_walk, replay
from schedcheck.model import KernelConfig, KernelState, TaskKind, initial_state
from schedcheck.monitor import TransitionTable

H = TaskKind.HEAVY
L = TaskKind.LIGHT

# The benchmark's walk configuration: H,H,H,H,L,L,L,L on 4 workers.
WALK = dict(worker_count=4, task_plan=(H, H, H, H, L, L, L, L),
            max_waits_per_task=3, max_preemptions_per_task=3)


def test_a_clean_walk_builds_no_annotation(monkeypatch):
    config = KernelConfig(**WALK)
    reports = [random_walk(config, seed, 100_000) for seed in range(5)]

    def refuse(*args, **kwargs):
        raise AssertionError("a clean walk built a step annotation")

    # no annotation, and none of its text: no step label, no monitor line
    monkeypatch.setattr(explorer, "StepAnnotation", refuse)
    monkeypatch.setattr(KernelState, "step_label", property(refuse))
    monkeypatch.setattr(TransitionTable, "line", refuse)
    for seed, report in enumerate(reports):
        assert random_walk(config, seed, 100_000) == report
        assert not report.violations and report.quiescent_ok == 1
        assert report.transitions_taken == report.max_depth > 0


def test_explore_renders_one_label_per_trace_step(monkeypatch):
    # from empty step memos, so the search's operations run on memo misses
    # too; only the replays of its traces render, one label per step
    config = KernelConfig(fix_wait_need_sched=False,
                          faults=frozenset({"enqueue-before-state", "skip-running-check"}))
    explorer.release_plan_memos()
    rendered = []
    label = KernelState.step_label.fget
    monkeypatch.setattr(KernelState, "step_label",
                        property(lambda state: rendered.append(state) or label(state)))
    report = explore(config)
    assert len(report.violations) > 1
    assert len(rendered) == sum(len(trace.steps) for trace in report.violations)


def reference_schedule(config: KernelConfig, seed: int) -> list:
    """The seeded schedule, stepped by clone-and-run until a verdict or the
    end: the choice at each state is `randrange` over its enabled steps.
    `random_walk` draws with `rng.choice`, which on CPython returns
    `seq[rng._randbelow(len(seq))]`, as `randrange` indexes it, so the
    test below pins that the two draws pick the same steps."""
    rng = random.Random(seed)
    state = initial_state(config)
    steps = []
    verdict, _, options = _settle(state)
    while verdict is None and options:
        steps.append(options[rng.randrange(len(options))])
        state = _apply(state, steps[-1])
        verdict, _, options = _settle(state)
    return steps


@pytest.mark.parametrize("config", [
    KernelConfig(**WALK, fix_wait_need_sched=False),
    KernelConfig(**WALK, faults=frozenset({"enqueue-before-state", "skip-running-check"})),
], ids=["wait-fix-off", "enqueue-before-state+skip-running-check"])
def test_a_verdict_walk_trace_is_the_replay_of_its_schedule(config):
    found = 0
    for seed in range(40):
        report = random_walk(config, seed, 100_000)
        if not report.violations:
            continue
        found += 1
        steps = tuple(reference_schedule(config, seed))
        trace = report.violations[0]
        assert trace.verdict is not None and trace.steps == steps
        assert trace == replay(config, steps)
        assert len(trace.annotations) == len(steps) == report.transitions_taken
    assert found >= 5
