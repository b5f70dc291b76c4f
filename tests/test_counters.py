"""Pinned search counters: a change to the state representation must leave
every counter of every pinned search exactly as it was. A state-space
reduction is expected to move them, and must re-pin them deliberately.

`explore` counts states up to a renaming of same-kind tasks and of worker
cores (`model.symmetric_key`); EXACT_LADDER pins the same rungs searched
with the exact `snapshot` key, and the walk pins hold `random_walk` to it."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from schedcheck import explorer
from schedcheck.cli import parse_args
from schedcheck.explorer import Limits, explore, random_walk
from schedcheck.model import KernelConfig, TaskKind

H = TaskKind.HEAVY
L = TaskKind.LIGHT

# (states_visited, transitions_taken, max_depth, quiescent_ok)
LADDER = {
    ("H,L,L", 2): (1660, 4699, 26, 1),
    ("H,H", 2): (2781, 8307, 33, 1),
    ("H,L,L", 3): (2278, 7931, 26, 1),
    ("H,H,L", 3): (19063, 75864, 38, 1),
}
# The same rungs with the visited set keyed by the exact snapshot.
EXACT_LADDER = {
    ("H,L,L", 2): (3890, 10946, 26, 1),
    ("H,H", 2): (10228, 30753, 33, 1),
    ("H,L,L", 3): (15543, 53922, 26, 1),
}
# Rungs with two preemptions per heavy task: complete and clean.
TWO_PREEMPTIONS = {
    ("H,L,L", 2): (3036, 8740, 32, 1),
    ("H,H", 2): (8058, 24697, 45, 1),
    ("H,L,L", 3): (4200, 14860, 32, 1),
}

# Seeded walks of H,H,L/2 under the CLI's step budget, keyed by seed.
WALKS = {1: (35, 34, 34, 1), 6: (29, 28, 28, 1)}

EBS, SRS, SRC = "enqueue-before-state", "skip-resume-state", "skip-running-check"
FAULTS = (EBS, SRS, SRC)

# Every fix/fault combination on H,L,L/2 under the CLI's default limits,
# keyed by (fix_wait, fix_preempt, faults). No combo has 16 violation
# classes, so each of these searches is complete.
FAULT_MATRIX = {
    (True, True, ()): (1660, 4699, 26, 1),
    (True, True, (EBS,)): (1740, 4945, 26, 1),
    (True, True, (SRS,)): (1592, 4431, 25, 1),
    (True, True, (SRC,)): (1660, 4699, 26, 1),
    (True, True, (EBS, SRS)): (1694, 4715, 25, 1),
    (True, True, (EBS, SRC)): (1788, 4945, 26, 1),
    (True, True, (SRS, SRC)): (1592, 4431, 25, 1),
    (True, True, (EBS, SRS, SRC)): (1742, 4715, 25, 1),
    (True, False, ()): (1035, 2332, 23, 1),
    (True, False, (EBS,)): (1343, 2903, 23, 1),
    (True, False, (SRS,)): (991, 2206, 21, 1),
    (True, False, (SRC,)): (1035, 2332, 23, 1),
    (True, False, (EBS, SRS)): (1303, 2781, 22, 1),
    (True, False, (EBS, SRC)): (1409, 2903, 23, 1),
    (True, False, (SRS, SRC)): (991, 2206, 21, 1),
    (True, False, (EBS, SRS, SRC)): (1369, 2781, 22, 1),
    (False, True, ()): (1173, 2707, 23, 1),
    (False, True, (EBS,)): (1233, 2879, 23, 1),
    (False, True, (SRS,)): (1133, 2523, 24, 1),
    (False, True, (SRC,)): (1173, 2707, 23, 1),
    (False, True, (EBS, SRS)): (1211, 2721, 24, 1),
    (False, True, (EBS, SRC)): (1269, 2879, 23, 1),
    (False, True, (SRS, SRC)): (1133, 2523, 24, 1),
    (False, True, (EBS, SRS, SRC)): (1247, 2721, 24, 1),
    (False, False, ()): (1063, 2313, 21, 1),
    (False, False, (EBS,)): (1414, 2953, 22, 1),
    (False, False, (SRS,)): (1063, 2313, 21, 1),
    (False, False, (SRC,)): (1063, 2313, 21, 1),
    (False, False, (EBS, SRS)): (1414, 2953, 22, 1),
    (False, False, (EBS, SRC)): (1489, 2953, 22, 1),
    (False, False, (SRS, SRC)): (1063, 2313, 21, 1),
    (False, False, (EBS, SRS, SRC)): (1489, 2953, 22, 1),
}


def cli_default_limits() -> Limits:
    args = parse_args([])
    return Limits(args.max_states, args.max_depth, args.max_violations)


def pinned(report: explorer.ExplorationReport) -> tuple[int, int, int, int]:
    return (report.states_visited, report.transitions_taken,
            report.max_depth, report.quiescent_ok)


def counters(config: KernelConfig) -> tuple[int, int, int, int]:
    return pinned(explore(config, cli_default_limits()))


def exact_key(buf, layout) -> bytes:
    """`symmetric_key`'s stand-in for the exact search: the state's bytes,
    which is `snapshot`."""
    return bytes(buf)


def ladder_config(plan: str, workers: int) -> KernelConfig:
    kinds = tuple(H if k == "H" else L for k in plan.split(","))
    return KernelConfig(worker_count=workers, task_plan=kinds)


def test_fault_matrix_covers_every_combination():
    combos = {
        (fix_wait, fix_preempt, faults)
        for fix_wait, fix_preempt in itertools.product((True, False), repeat=2)
        for k in range(len(FAULTS) + 1)
        for faults in itertools.combinations(FAULTS, k)
    }
    assert set(FAULT_MATRIX) == combos


@pytest.mark.parametrize("plan,workers", sorted(LADDER))
def test_ladder_counters(plan, workers):
    assert counters(ladder_config(plan, workers)) == LADDER[plan, workers]


@pytest.mark.parametrize("plan,workers", sorted(EXACT_LADDER))
def test_exact_key_ladder_counters(plan, workers, monkeypatch):
    monkeypatch.setattr(explorer, "symmetric_key", exact_key)
    assert counters(ladder_config(plan, workers)) == EXACT_LADDER[plan, workers]


@pytest.mark.parametrize("plan,workers", sorted(TWO_PREEMPTIONS))
def test_two_preemption_rung_is_complete_and_clean(plan, workers):
    config = dataclasses.replace(ladder_config(plan, workers), max_preemptions_per_task=2)
    report = explore(config, cli_default_limits())
    assert pinned(report) == TWO_PREEMPTIONS[plan, workers]
    assert not report.incomplete
    assert report.violations == []
    assert report.all_paths_terminal_ok


@pytest.mark.parametrize("seed", sorted(WALKS))
def test_walk_counters(seed):
    report = random_walk(ladder_config("H,H,L", 2), seed, parse_args([]).max_steps)
    assert pinned(report) == WALKS[seed]


@pytest.mark.parametrize("combo", sorted(FAULT_MATRIX, key=str), ids=str)
def test_fault_matrix_counters(combo):
    fix_wait, fix_preempt, faults = combo
    config = KernelConfig(
        fix_wait_need_sched=fix_wait,
        fix_preempt_need_sched=fix_preempt,
        faults=frozenset(faults),
    )
    report = explore(config, cli_default_limits())
    assert pinned(report) == FAULT_MATRIX[combo]
    assert not report.incomplete
