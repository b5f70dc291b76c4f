"""Pinned search counters: a change to the state representation must leave
every counter of every pinned search exactly as it was. A state-space
reduction is expected to move them, and must re-pin them deliberately."""

from __future__ import annotations

import itertools

import pytest

from schedcheck.cli import parse_args
from schedcheck.explorer import Limits, explore
from schedcheck.model import KernelConfig, TaskKind

H = TaskKind.HEAVY
L = TaskKind.LIGHT

# (states_visited, transitions_taken, max_depth, quiescent_ok)
LADDER = {
    ("H,L,L", 2): (6156, 16549, 27, 8),
    ("H,H", 2): (26314, 72145, 35, 76),
    ("H,L,L", 3): (26803, 86757, 27, 16),
}

EBS, SRS, SRC = "enqueue-before-state", "skip-resume-state", "skip-running-check"
FAULTS = (EBS, SRS, SRC)

# Every fix/fault combination on H,L,L/2 under the CLI's default limits,
# keyed by (fix_wait, fix_preempt, faults).
FAULT_MATRIX = {
    (True, True, ()): (6156, 16549, 27, 8),
    (True, True, (EBS,)): (6316, 17041, 27, 8),
    (True, True, (SRS,)): (62, 76, 21, 0),
    (True, True, (SRC,)): (6156, 16549, 27, 8),
    (True, True, (EBS, SRS)): (62, 76, 21, 0),
    (True, True, (EBS, SRC)): (1416, 3062, 27, 7),
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
    (False, True, ()): (1135, 2419, 24, 2),
    (False, True, (EBS,)): (1145, 2449, 24, 2),
    (False, True, (SRS,)): (62, 76, 21, 0),
    (False, True, (SRC,)): (1135, 2419, 24, 2),
    (False, True, (EBS, SRS)): (62, 76, 21, 0),
    (False, True, (EBS, SRC)): (1120, 2383, 24, 2),
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


def counters(config: KernelConfig) -> tuple[int, int, int, int]:
    report = explore(config, cli_default_limits(), verify_invariants=True)
    return (report.states_visited, report.transitions_taken,
            report.max_depth, report.quiescent_ok)


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
    kinds = tuple(H if k == "H" else L for k in plan.split(","))
    config = KernelConfig(worker_count=workers, task_plan=kinds)
    assert counters(config) == LADDER[plan, workers]


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
