"""Violation classes across the bounds: the class set of each of the 32
fix/fault combos of H,H/2 at (waits, preemptions) = (1,1), (2,1) and (1,2).

The classes at (1,1) are pinned below. The other two settings keep them,
except that a second wait on the preempt-fix-off protocol lets a stale
IPI preempt a task a second time: with the wait fix on and faults within
{enqueue-before-state, skip-running-check}, task 0's preemption budget
goes below zero at (2,1), which is the only "counter below zero" verdict
that any of these searches reaches."""

from __future__ import annotations

import itertools

import pytest

from schedcheck.explorer import VERDICT_ASSERTION, Limits, explore, replay, violation_class
from schedcheck.model import KernelConfig, TaskKind

H = TaskKind.HEAVY
FAULT_NAMES = {"EBS": "enqueue-before-state", "SRS": "skip-resume-state",
               "SRC": "skip-running-check"}

SHARE = "AssertionFailure: cores share a current task: [#, #]"
BELOW = "AssertionFailure: task # counter below zero"
DEADLOCK = "Deadlock: no step enabled, tasks not terminal"
STALE_WAKE = "H Runnable(false) Wake"
PREEMPT_RUNNING = "H Running(false) Preempt"
RESUMED_UNSET = {"H Preempted(true) PollPending", "H Preempted(true) PollReady"}

# (fix_wait, fix_preempt, faults): the classes at 1 wait and 1 preemption
AT_ONE_ONE = {
    (True, True, ""): set(),
    (True, True, "EBS"): set(),
    (True, True, "SRS"): RESUMED_UNSET,
    (True, True, "SRC"): set(),
    (True, True, "EBS+SRS"): RESUMED_UNSET,
    (True, True, "EBS+SRC"): {"H Running(true) GetNext"},
    (True, True, "SRS+SRC"): RESUMED_UNSET,
    (True, True, "EBS+SRS+SRC"): {SHARE, *RESUMED_UNSET},
    (True, False, ""): {PREEMPT_RUNNING},
    (True, False, "EBS"): {PREEMPT_RUNNING},
    (True, False, "SRS"): {"H Preempted(true) PollPending", "H Preempted(true) Preempt",
                           PREEMPT_RUNNING},
    (True, False, "SRC"): {PREEMPT_RUNNING},
    (True, False, "EBS+SRS"): {SHARE, "H Preempted(true) PollPending",
                               "H Preempted(true) Preempt", PREEMPT_RUNNING},
    (True, False, "EBS+SRC"): {"H Running(false) GetNext", PREEMPT_RUNNING,
                               "H Running(true) GetNext"},
    (True, False, "SRS+SRC"): {"H Preempted(true) PollPending", "H Preempted(true) Preempt",
                               PREEMPT_RUNNING},
    (True, False, "EBS+SRS+SRC"): {SHARE, "H Preempted(true) PollPending",
                                   "H Preempted(true) Preempt", PREEMPT_RUNNING},
    (False, True, ""): {DEADLOCK, STALE_WAKE},
    (False, True, "EBS"): {DEADLOCK, STALE_WAKE},
    (False, True, "SRS"): {DEADLOCK, *RESUMED_UNSET, STALE_WAKE},
    (False, True, "SRC"): {DEADLOCK, STALE_WAKE},
    (False, True, "EBS+SRS"): {DEADLOCK, *RESUMED_UNSET, STALE_WAKE},
    (False, True, "EBS+SRC"): {DEADLOCK, STALE_WAKE, "H Running(true) GetNext"},
    (False, True, "SRS+SRC"): {DEADLOCK, *RESUMED_UNSET, STALE_WAKE},
    (False, True, "EBS+SRS+SRC"): {SHARE, DEADLOCK, *RESUMED_UNSET, STALE_WAKE},
    (False, False, ""): {DEADLOCK, PREEMPT_RUNNING},
    (False, False, "EBS"): {DEADLOCK, PREEMPT_RUNNING},
    (False, False, "SRS"): {DEADLOCK, PREEMPT_RUNNING},
    (False, False, "SRC"): {DEADLOCK, PREEMPT_RUNNING},
    (False, False, "EBS+SRS"): {DEADLOCK, PREEMPT_RUNNING},
    (False, False, "EBS+SRC"): {DEADLOCK, "H Running(false) GetNext", PREEMPT_RUNNING},
    (False, False, "SRS+SRC"): {DEADLOCK, PREEMPT_RUNNING},
    (False, False, "EBS+SRS+SRC"): {SHARE, DEADLOCK, PREEMPT_RUNNING},
}

# (waits, preemptions) -> combos that gain a class there, and the class
GAINED = {(2, 1): {(True, False, faults): BELOW
                   for faults in ("", "EBS", "SRC", "EBS+SRC")}}


def class_text(cls: tuple) -> str:
    if cls[0] == "MonitorViolation":
        return " ".join(map(str, cls[1:]))
    return f"{cls[0]}: {cls[1]}"


def test_the_table_covers_every_combo():
    faults = ("+".join(names) for n in range(4)
              for names in itertools.combinations(sorted(FAULT_NAMES, key=FAULT_NAMES.get), n))
    assert set(AT_ONE_ONE) == set(itertools.product((True, False), (True, False), faults))


@pytest.mark.parametrize("bounds", [(1, 1), (2, 1), (1, 2)], ids=lambda b: "%d,%d" % b)
def test_class_sets_of_h_h_across_the_bounds(bounds):
    waits, preemptions = bounds
    gained = GAINED.get(bounds, {})
    below = 0
    for combo, expected in AT_ONE_ONE.items():
        fix_wait, fix_preempt, faults = combo
        config = KernelConfig(
            task_plan=(H, H), fix_wait_need_sched=fix_wait, fix_preempt_need_sched=fix_preempt,
            faults=frozenset(FAULT_NAMES[f] for f in faults.split("+") if f),
            max_waits_per_task=waits, max_preemptions_per_task=preemptions)
        report = explore(config, Limits(max_violations=10**9))
        assert not report.incomplete
        classes = {class_text(violation_class(config, t.verdict, t.monitor_error, t.detail))
                   for t in report.violations}
        assert classes == (expected | {gained[combo]} if combo in gained else expected), combo
        for trace in report.violations:
            if trace.verdict == VERDICT_ASSERTION and "counter below zero" in trace.detail:
                assert trace.detail == "task 0 counter below zero"
                assert replay(config, trace.steps) == trace
                below += 1
    assert below == len(gained)
