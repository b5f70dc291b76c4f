"""`replay_all` replays a report's schedules along one shared prefix path:
each result is the verdict of the trace that `replay` gives for that
schedule on its own, or the error it raises, and each distinct schedule
prefix of a report runs once."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from functools import cache

from hypothesis import given, settings, strategies as st

from schedcheck import explorer
from schedcheck.cli import EXIT_VIOLATION, main
from schedcheck.explorer import (
    PROCESS_KINDS,
    Limits,
    ReplayError,
    ScheduleStep,
    explore,
    replay,
    replay_all,
)
from schedcheck.model import FAULTS, KernelConfig, TaskKind

H = TaskKind.HEAVY
L = TaskKind.LIGHT


@cache
def reports() -> tuple[tuple[KernelConfig, tuple[tuple[ScheduleStep, ...], ...]], ...]:
    """The violations' schedules of every fix/fault combo on H,L,L/2 with
    invariants on and default limits, for the combos that have any."""
    out = []
    for toggles in itertools.product((True, False), repeat=5):
        cfg = KernelConfig(
            worker_count=2,
            task_plan=(H, L, L),
            fix_wait_need_sched=toggles[0],
            fix_preempt_need_sched=toggles[1],
            faults=frozenset(f for f, on in zip(sorted(FAULTS), toggles[2:]) if on),
        )
        schedules = tuple(t.steps for t in explore(cfg, Limits()).violations)
        if schedules:
            out.append((cfg, schedules))
    return tuple(out)


def altered(step: ScheduleStep, core: int, variant: int) -> ScheduleStep:
    """`step` with another variant and, for a worker, another core."""
    kind, old_core, _ = step
    return kind, core if old_core is not None else None, variant


@st.composite
def schedule_lists(draw):
    cfg, base = draw(st.sampled_from(reports()))
    schedules = list(draw(st.permutations(base)))[: draw(st.integers(0, len(base)))]
    any_step = st.builds(
        lambda kind, core, variant: (kind, core if kind == "Worker" else None, variant),
        st.sampled_from(PROCESS_KINDS), st.integers(1, 2), st.integers(0, 2),
    )
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["duplicate", "truncate", "extend", "alter", "empty"]))
        at = draw(st.integers(0, len(schedules)))
        if op == "empty" or not schedules:
            schedules.insert(at, ())
            continue
        at = min(at, len(schedules) - 1)
        steps = new = schedules[at]
        if op == "truncate":
            new = steps[: draw(st.integers(0, len(steps)))]
        elif op == "extend":
            new = steps + (draw(any_step),)
        elif op == "alter" and steps:
            i = draw(st.integers(0, len(steps) - 1))
            changed = altered(steps[i], draw(st.integers(1, 2)), draw(st.integers(0, 2)))
            new = steps[:i] + (changed,) + steps[i + 1:]
        # the variant either replaces its source or follows it, so that it
        # replays right after the schedule it shares a prefix with
        if op != "duplicate" and draw(st.booleans()):
            schedules[at] = new
        else:
            schedules.insert(at + 1, new)
    return cfg, schedules


@settings(max_examples=60, deadline=None)
@given(case=schedule_lists())
def test_replay_all_agrees_with_replay_of_each_schedule(case):
    cfg, schedules = case
    results = list(replay_all(cfg, schedules))
    assert len(results) == len(schedules)
    for steps, result in zip(schedules, results):
        try:
            alone = replay(cfg, steps)
        except ReplayError as exc:
            assert type(result) is type(exc)
            assert str(result) == str(exc)
        else:
            assert not isinstance(result, ReplayError), str(result)
            assert result == alone.verdict


def test_replay_runs_each_distinct_prefix_once(tmp_path, monkeypatch):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--fix-wait", "off", "--max-violations", "1000000000", "--out", "json"])
    assert code == EXIT_VIOLATION
    path = tmp_path / "report.json"
    path.write_text(out.getvalue())
    schedules = [
        tuple((s["process"], s["core"], s["variant"]) for s in v["steps"])
        for v in json.loads(out.getvalue())["violations"]
    ]
    prefixes = {steps[:k] for steps in schedules for k in range(1, len(steps) + 1)}

    calls = 0
    transition = explorer._transition

    def counting(*args):
        nonlocal calls
        calls += 1
        return transition(*args)

    monkeypatch.setattr(explorer, "_transition", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--mode", "replay", "--trace-in", str(path)]) == EXIT_VIOLATION
    assert calls == len(prefixes)
    # one shortest trace per class: the deadlock's 5 steps and the Wake
    # violation's 6 share their first step
    assert (calls, sum(map(len, schedules))) == (10, 11)
