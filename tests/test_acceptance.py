"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line. Bug reproductions run bounded exhaustive explorations; the clean run
is the full default configuration.

Criterion 4's exact offending pair (Running(false), GetNext) is only
reachable with the preempt fix off, because with the fix on the flag is
necessarily set when the enqueue-before-state window opens. The test
therefore checks the exact pair under fix-off and scopes that control to
GetNext violations (the fix-off Preempt violations are criterion 3's
signature), and additionally checks the strict zero-violation control
under fixes-on. See the workbench README for the full argument.
"""

from __future__ import annotations

import resource
import time
from array import array

import pytest

from schedcheck.cli import emit_json, report_to_doc
from schedcheck.explorer import (
    Limits,
    VERDICT_DEADLOCK,
    VERDICT_MONITOR,
    explore,
    random_walk,
    replay,
)
from schedcheck.model import KernelConfig, TaskKind
from schedcheck.monitor import INIT, Event, MonitorRegistry, default_table

H = TaskKind.HEAVY
L = TaskKind.LIGHT


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def offending_pairs(report):
    return {
        (str(t.monitor_error.current_state), str(t.monitor_error.symbol))
        for t in report.violations
        if t.monitor_error is not None
    }


LOST_WAKEUP = KernelConfig(
    worker_count=1,
    task_plan=(H,),
    fix_wait_need_sched=False,
    max_waits_per_task=1,
    max_preemptions_per_task=0,
)
PREEMPT_BUG = KernelConfig(
    worker_count=2,
    task_plan=(H, L),
    fix_preempt_need_sched=False,
    max_waits_per_task=0,
    max_preemptions_per_task=1,
)
MONITOR_GAP = KernelConfig(
    worker_count=2,
    task_plan=(H,),
    fix_preempt_need_sched=False,
    max_waits_per_task=0,
    max_preemptions_per_task=1,
    faults=frozenset({"enqueue-before-state", "skip-running-check"}),
)
RESUME_GAP = KernelConfig(
    worker_count=2,
    task_plan=(H, L),
    max_waits_per_task=0,
    max_preemptions_per_task=1,
    faults=frozenset({"skip-resume-state"}),
)
CLEAN_FULL = KernelConfig()  # 2 workers, H,L,L, both fixes, 1 wait, 1 preemption

WIDE = Limits(max_violations=512)


@pytest.fixture(scope="module")
def clean_run():
    start = time.monotonic()
    report = explore(CLEAN_FULL)
    return report, time.monotonic() - start


def test_criterion_1_lost_wakeup_reproduction():
    start = time.monotonic()
    report = explore(LOST_WAKEUP, WIDE)
    elapsed = time.monotonic() - start
    deadlocks = [t for t in report.violations if t.verdict == VERDICT_DEADLOCK]

    def shows_window(trace):
        labels = [a.label for a in trace.annotations]
        try:
            register = labels.index(next(l for l in labels if "registers timer" in l))
            fire = labels.index(next(l for l in labels if "timer fire" in l))
            waiting = labels.index(next(l for l in labels if "enters waiting" in l))
        except StopIteration:
            return False
        return register < fire < waiting

    windowed = [t for t in deadlocks if shows_window(t)]
    final_ok = any(
        dict(t.final_task_states)[0].startswith("Waiting") and t.final_queue == ()
        for t in windowed
    )
    ok = bool(deadlocks) and bool(windowed) and final_ok and elapsed < 5.0
    report_line(
        1,
        ok,
        f"{len(deadlocks)} deadlock(s), wake-in-window trace found, "
        f"final Waiting task with empty queue, {elapsed:.2f}s",
    )
    assert deadlocks, "expected at least one Deadlock violation"
    assert windowed, "expected a trace with the wake between register and waiting"
    assert final_ok, "expected a final state with a Waiting task and empty queue"
    assert elapsed < 5.0


def test_criterion_2_lost_wakeup_fix():
    start = time.monotonic()
    cfg = KernelConfig(
        worker_count=1,
        task_plan=(H,),
        fix_wait_need_sched=True,
        max_waits_per_task=1,
        max_preemptions_per_task=0,
    )
    report = explore(cfg)
    elapsed = time.monotonic() - start
    doc = report_to_doc(report, "explore")
    from schedcheck.cli import exit_code_for

    ok = (
        not report.violations
        and report.all_paths_terminal_ok
        and exit_code_for(doc) == 0
        and elapsed < 5.0
    )
    report_line(2, ok, f"0 violations, terminal-ok, exit 0, {elapsed:.2f}s")
    assert report.violations == []
    assert report.all_paths_terminal_ok is True
    assert exit_code_for(doc) == 0
    assert elapsed < 5.0


def test_criterion_3_preemption_timing():
    start = time.monotonic()
    buggy = explore(PREEMPT_BUG, WIDE)
    elapsed_bug = time.monotonic() - start
    pairs = offending_pairs(buggy)

    start = time.monotonic()
    fixed = explore(
        KernelConfig(
            worker_count=2,
            task_plan=(H, L),
            max_waits_per_task=0,
            max_preemptions_per_task=1,
        )
    )
    elapsed_fix = time.monotonic() - start

    monitor_violations = [t for t in buggy.violations if t.verdict == VERDICT_MONITOR]

    def stale_newcomer(trace):
        # the decision predates the victim's start: the freshly started task
        # gets preempted by a decision that observed its predecessor
        err = trace.monitor_error
        if err is None or err.task != 1 or str(err.symbol) != "Preempt":
            return False
        labels = [a.label for a in trace.annotations]
        decide = next((i for i, l in enumerate(labels) if "preempt decide" in l), None)
        start = next((i for i, l in enumerate(labels) if "start task 1" in l), None)
        return decide is not None and start is not None and decide < start

    newcomer_hits = [t for t in monitor_violations if stale_newcomer(t)]
    ok = (
        bool(monitor_violations)
        and ("Running(false)", "Preempt") in pairs
        and bool(newcomer_hits)
        and not fixed.violations
        and elapsed_bug < 60.0
        and elapsed_fix < 60.0
    )
    report_line(
        3,
        ok,
        f"(Running(false), Preempt) reproduced incl. just-started victim, "
        f"fix clean, {elapsed_bug:.2f}s/{elapsed_fix:.2f}s",
    )
    assert monitor_violations
    assert ("Running(false)", "Preempt") in pairs
    assert newcomer_hits, "expected the just-started task preempted by a stale decision"
    assert fixed.violations == []
    assert elapsed_bug < 60.0 and elapsed_fix < 60.0


def test_criterion_4_running_task_dequeued_gap():
    # exact error fields of the reported gap need the preempt fix off
    both_faults = explore(MONITOR_GAP, WIDE)
    pairs = offending_pairs(both_faults)
    exact_pair = ("Running(false)", "GetNext") in pairs
    gap_trace = next(
        (
            t
            for t in both_faults.violations
            if t.monitor_error is not None
            and str(t.monitor_error.current_state) == "Running(false)"
            and str(t.monitor_error.symbol) == "GetNext"
        ),
        None,
    )
    fields_ok = gap_trace is not None and gap_trace.monitor_error.describe() == (
        "invalid transition: current state: Running(false), symbol: GetNext"
    )

    # control: with the running check active the GetNext gap closes
    check_on = explore(
        KernelConfig(
            worker_count=2,
            task_plan=(H,),
            fix_preempt_need_sched=False,
            max_waits_per_task=0,
            max_preemptions_per_task=1,
            faults=frozenset({"enqueue-before-state"}),
        ),
        WIDE,
    )
    getnext_closed = all(
        str(t.monitor_error.symbol) != "GetNext"
        for t in check_on.violations
        if t.monitor_error is not None
    )

    # fixes-on variant: same window, strict zero-violation control
    fixes_on = explore(
        KernelConfig(
            worker_count=2,
            task_plan=(H,),
            max_waits_per_task=0,
            max_preemptions_per_task=1,
            faults=frozenset({"enqueue-before-state", "skip-running-check"}),
        ),
        WIDE,
    )
    fixes_on_hits = any(
        str(t.monitor_error.symbol) == "GetNext"
        for t in fixes_on.violations
        if t.monitor_error is not None
    )
    fixes_on_control = explore(
        KernelConfig(
            worker_count=2,
            task_plan=(H,),
            max_waits_per_task=0,
            max_preemptions_per_task=1,
            faults=frozenset({"enqueue-before-state"}),
        )
    )

    ok = (
        exact_pair
        and fields_ok
        and getnext_closed
        and fixes_on_hits
        and not fixes_on_control.violations
    )
    report_line(
        4,
        ok,
        "(Running(false), GetNext) reproduced with error fields; "
        "running check closes the gap (strict zero under fixes-on)",
    )
    assert exact_pair, f"expected (Running(false), GetNext) in {pairs}"
    assert fields_ok
    assert getnext_closed, "running check should remove every GetNext violation"
    assert fixes_on_hits, "window should be observable under fixes-on too"
    assert fixes_on_control.violations == []


def test_criterion_5_resume_without_running():
    faulty = explore(RESUME_GAP, WIDE)
    monitor_violations = [t for t in faulty.violations if t.monitor_error is not None]
    from_preempted = [
        t
        for t in monitor_violations
        if str(t.monitor_error.current_state).startswith("Preempted")
    ]
    resumed_then_invalid = []
    for trace in from_preempted:
        labels = [a.label for a in trace.annotations]
        if any("resume task" in l for l in labels):
            resumed_then_invalid.append(trace)

    control = explore(
        KernelConfig(
            worker_count=2,
            task_plan=(H, L),
            max_waits_per_task=0,
            max_preemptions_per_task=1,
        )
    )
    ok = (
        bool(monitor_violations)
        and monitor_violations == from_preempted
        and bool(resumed_then_invalid)
        and not control.violations
    )
    report_line(
        5,
        ok,
        f"{len(from_preempted)} violation(s) from Preempted-state monitors "
        "after resume; fault off clean",
    )
    assert monitor_violations
    assert monitor_violations == from_preempted, "every violation stems from Preempted"
    assert resumed_then_invalid, "expected a resume step before the invalid event"
    assert control.violations == []


def test_criterion_6_full_scale_clean_run(clean_run):
    report, elapsed = clean_run
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 / 1024
    doc_a = emit_json(report_to_doc(report, "explore"))
    doc_b = emit_json(report_to_doc(explore(CLEAN_FULL), "explore"))
    ok = (
        not report.incomplete
        and not report.violations
        and report.all_paths_terminal_ok
        and report.states_visited > 0
        and report.quiescent_ok > 0
        and doc_a == doc_b
        and elapsed < 600.0
        and peak_gb < 8.0
    )
    report_line(
        6,
        ok,
        f"exhaustive: {report.states_visited} states, "
        f"{report.transitions_taken} transitions, 0 violations, "
        f"byte-identical reports, {elapsed:.1f}s, {peak_gb:.2f}GB",
    )
    assert not report.incomplete, "exploration must complete without hitting limits"
    assert report.violations == []
    assert report.all_paths_terminal_ok is True
    assert report.states_visited > 0
    assert report.quiescent_ok > 0, "every maximal path ends all-terminal"
    assert doc_a == doc_b, "two consecutive runs must serialize byte-identically"
    assert elapsed < 600.0
    assert peak_gb < 8.0


def test_criterion_7_monitor_oracle_equivalence():
    import random

    table = default_table()
    events = list(Event)
    rng = random.Random(20260810)
    agreements = 0
    total = 1000
    for _ in range(total):
        sequence = [rng.choice(events) for _ in range(rng.randint(0, 20))]
        # brute-force fold over the raw triple set
        current = INIT
        fold_result = ("ok", None)
        for i, event in enumerate(sequence):
            hits = [d for (s, e, d) in table.triples if s == current and e == event]
            if not hits:
                fold_result = ("violation", i)
                break
            current = hits[0]
        # step-by-step monitor, in the registry a kernel state uses
        mon = MonitorRegistry(table, array("b", [0]), (0,))
        mon.register(0)
        mon_result = ("ok", None)
        for i, event in enumerate(sequence):
            if mon.fire(0, event)[0] is not None:
                mon_result = ("violation", i)
                break
        if fold_result == mon_result and (
            fold_result[0] == "violation" or mon.current(0) == current
        ):
            agreements += 1
    ok = agreements == total
    report_line(7, ok, f"{agreements}/{total} random sequences agree with the fold oracle")
    assert agreements == total


def test_criterion_8_determinism_and_replay():
    replayed = 0
    mismatches = []
    for cfg in (LOST_WAKEUP, PREEMPT_BUG, MONITOR_GAP, RESUME_GAP):
        report = explore(cfg, WIDE)
        assert report.violations, f"expected violations under {cfg}"
        for trace in report.violations:
            result = replay(cfg, trace.steps)
            replayed += 1
            if result.verdict != trace.verdict:
                mismatches.append((cfg, trace.verdict, result.verdict))
            elif trace.monitor_error is not None and (
                str(result.monitor_error.current_state)
                != str(trace.monitor_error.current_state)
                or result.monitor_error.symbol != trace.monitor_error.symbol
            ):
                mismatches.append((cfg, trace.verdict, "error fields differ"))

    walk_docs = [
        emit_json(report_to_doc(random_walk(PREEMPT_BUG, seed=11, max_steps=5000), "walk", seed=11))
        for _ in range(2)
    ]
    walks_identical = walk_docs[0] == walk_docs[1]
    ok = not mismatches and walks_identical
    report_line(
        8,
        ok,
        f"{replayed - len(mismatches)}/{replayed} violation traces replayed to "
        "identical verdicts; equal-seed walks byte-identical",
    )
    assert mismatches == []
    assert walks_identical


def test_criterion_9_invariant_suite(clean_run):
    report, _ = clean_run
    # explore checked queue duplicates, capacity, in_queue
    # consistency, preempt_in_flight uniqueness, and absorbing terminals on
    # every visited state; any failure would be an AssertionFailure trace.
    failures = [t for t in report.violations if t.verdict == "AssertionFailure"]
    ok = not failures and report.states_visited > 0
    report_line(
        9,
        ok,
        f"0 invariant failures across {report.states_visited} visited states",
    )
    assert failures == []
    assert report.states_visited > 0
