"""Pinned search counters: a change to the state representation must leave
every counter of every pinned search exactly as it was. A state-space
reduction is expected to move them, and must re-pin them deliberately.

`explore` counts states up to a renaming of worker cores
(`model.symmetric_key`); EXACT_LADDER pins the same rungs searched with
the exact `snapshot` key, and the walk pins hold `random_walk` to it."""

from __future__ import annotations

import itertools

import pytest

from schedcheck import explorer
from schedcheck.cli import parse_args
from schedcheck.explorer import Limits, explore, random_walk
from schedcheck.model import KernelConfig, TaskKind, snapshot

H = TaskKind.HEAVY
L = TaskKind.LIGHT

# (states_visited, transitions_taken, max_depth, quiescent_ok)
LADDER = {
    ("H,L,L", 2): (3138, 8404, 27, 6),
    ("H,H", 2): (13498, 36825, 35, 64),
    ("H,L,L", 3): (5142, 16465, 27, 10),
}
# The same rungs with the visited set keyed by the exact snapshot.
EXACT_LADDER = {
    ("H,L,L", 2): (6156, 16549, 27, 8),
    ("H,H", 2): (26314, 72145, 35, 76),
    ("H,L,L", 3): (26803, 86757, 27, 16),
}
# H,L,L/2 with two preemptions per heavy task: complete and clean.
TWO_PREEMPTIONS = (8733, 24138, 33, 12)

# Seeded walks of H,H,L/2 under the CLI's step budget, keyed by seed.
WALKS = {1: (35, 34, 34, 1), 6: (29, 28, 28, 1)}

EBS, SRS, SRC = "enqueue-before-state", "skip-resume-state", "skip-running-check"
FAULTS = (EBS, SRS, SRC)

# Every fix/fault combination on H,L,L/2 under the CLI's default limits,
# keyed by (fix_wait, fix_preempt, faults).
FAULT_MATRIX = {
    (True, True, ()): (3138, 8404, 27, 6),
    (True, True, (EBS,)): (3218, 8650, 27, 6),
    (True, True, (SRS,)): (62, 76, 21, 0),
    (True, True, (SRC,)): (3138, 8404, 27, 6),
    (True, True, (EBS, SRS)): (62, 76, 21, 0),
    (True, True, (EBS, SRC)): (1623, 3872, 27, 6),
    (True, True, (SRS, SRC)): (62, 76, 21, 0),
    (True, True, (EBS, SRS, SRC)): (62, 76, 21, 0),
    (True, False, ()): (54, 77, 15, 0),
    (True, False, (EBS,)): (56, 75, 16, 0),
    (True, False, (SRS,)): (54, 77, 15, 0),
    (True, False, (SRC,)): (54, 77, 15, 0),
    (True, False, (EBS, SRS)): (56, 75, 16, 0),
    (True, False, (EBS, SRC)): (55, 71, 16, 0),
    (True, False, (SRS, SRC)): (54, 77, 15, 0),
    (True, False, (EBS, SRS, SRC)): (55, 71, 16, 0),
    (False, True, ()): (994, 2131, 24, 2),
    (False, True, (EBS,)): (1004, 2161, 24, 2),
    (False, True, (SRS,)): (62, 76, 21, 0),
    (False, True, (SRC,)): (994, 2131, 24, 2),
    (False, True, (EBS, SRS)): (62, 76, 21, 0),
    (False, True, (EBS, SRC)): (979, 2095, 24, 2),
    (False, True, (SRS, SRC)): (62, 76, 21, 0),
    (False, True, (EBS, SRS, SRC)): (62, 76, 21, 0),
    (False, False, ()): (54, 77, 15, 0),
    (False, False, (EBS,)): (56, 75, 16, 0),
    (False, False, (SRS,)): (54, 77, 15, 0),
    (False, False, (SRC,)): (54, 77, 15, 0),
    (False, False, (EBS, SRS)): (56, 75, 16, 0),
    (False, False, (EBS, SRC)): (55, 71, 16, 0),
    (False, False, (SRS, SRC)): (54, 77, 15, 0),
    (False, False, (EBS, SRS, SRC)): (55, 71, 16, 0),
}


def cli_default_limits() -> Limits:
    args = parse_args([])
    return Limits(args.max_states, args.max_depth, args.max_violations)


def pinned(report: explorer.ExplorationReport) -> tuple[int, int, int, int]:
    return (report.states_visited, report.transitions_taken,
            report.max_depth, report.quiescent_ok)


def counters(config: KernelConfig) -> tuple[int, int, int, int]:
    return pinned(explore(config, cli_default_limits(), verify_invariants=True))


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
    monkeypatch.setattr(explorer, "symmetric_key", snapshot)
    assert counters(ladder_config(plan, workers)) == EXACT_LADDER[plan, workers]


def test_two_preemption_rung_is_complete_and_clean():
    config = KernelConfig(max_preemptions_per_task=2)
    report = explore(config, cli_default_limits(), verify_invariants=True)
    assert pinned(report) == TWO_PREEMPTIONS
    assert not report.incomplete
    assert report.violations == []
    assert report.all_paths_terminal_ok


@pytest.mark.parametrize("seed", sorted(WALKS))
def test_walk_counters(seed):
    report = random_walk(ladder_config("H,H,L", 2), seed, parse_args([]).max_steps,
                         verify_invariants=True)
    assert pinned(report) == WALKS[seed]


@pytest.mark.parametrize("combo", sorted(FAULT_MATRIX, key=str), ids=str)
def test_fault_matrix_counters(combo):
    fix_wait, fix_preempt, faults = combo
    config = KernelConfig(
        fix_wait_need_sched=fix_wait,
        fix_preempt_need_sched=fix_preempt,
        fault_enqueue_before_state=EBS in faults,
        fault_skip_resume_state=SRS in faults,
        fault_skip_running_check=SRC in faults,
    )
    assert counters(config) == FAULT_MATRIX[combo]
