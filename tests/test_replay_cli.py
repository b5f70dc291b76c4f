"""`--mode replay` replays each violation of a report on its own: each
entry of the replay document gives the verdict of the trace that `replay`
builds for that schedule, or the text of the ReplayError it raises, and the
exit code is 2 when any entry does not match its recorded verdict, else 1
when any reproduced, else 0."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from schedcheck import model
from schedcheck.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, config_to_dict, main
from schedcheck.explorer import (
    PROCESS_KINDS,
    VERDICT_ASSERTION,
    VERDICT_DEADLOCK,
    VERDICT_MONITOR,
    Limits,
    ReplayError,
    ScheduleStep,
    explore,
    replay,
)
from schedcheck.model import (
    FAULTS,
    T_NEED_SCHED,
    T_PREEMPTIONS,
    T_TIMER,
    KernelConfig,
    TaskKind,
)

H = TaskKind.HEAVY
L = TaskKind.LIGHT

VERDICTS = (VERDICT_MONITOR, VERDICT_DEADLOCK, VERDICT_ASSERTION)


@cache
def reports() -> tuple[tuple[KernelConfig, tuple[tuple[str, tuple[ScheduleStep, ...]], ...]], ...]:
    """The violations' (verdict, schedule) of every fix/fault combo on
    H,L,L/2 with invariants on and default limits, for the combos that have
    any."""
    out = []
    for toggles in itertools.product((True, False), repeat=5):
        cfg = KernelConfig(
            worker_count=2,
            task_plan=(H, L, L),
            fix_wait_need_sched=toggles[0],
            fix_preempt_need_sched=toggles[1],
            faults=frozenset(f for f, on in zip(sorted(FAULTS), toggles[2:]) if on),
        )
        violations = tuple((t.verdict, t.steps) for t in explore(cfg, Limits()).violations)
        if violations:
            out.append((cfg, violations))
    return tuple(out)


def altered(step: ScheduleStep, core: int, variant: int) -> ScheduleStep:
    """`step` with another variant and, for a worker, another core."""
    kind, old_core, _ = step
    return kind, core if old_core is not None else None, variant


@st.composite
def violation_lists(draw):
    """A report's (verdict, schedule) list, permuted and cut, with up to four
    schedules duplicated, truncated, extended, altered or emptied, and some
    verdicts swapped for another."""
    cfg, base = draw(st.sampled_from(reports()))
    violations = list(draw(st.permutations(base)))[: draw(st.integers(0, len(base)))]
    any_step = st.builds(
        lambda kind, core, variant: (kind, core if kind == "Worker" else None, variant),
        st.sampled_from(PROCESS_KINDS), st.integers(1, 2), st.integers(0, 2),
    )
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["duplicate", "truncate", "extend", "alter", "empty", "verdict"]))
        at = draw(st.integers(0, len(violations)))
        if op == "empty" or not violations:
            violations.insert(at, (draw(st.sampled_from(VERDICTS)), ()))
            continue
        at = min(at, len(violations) - 1)
        verdict, steps = violations[at]
        new = steps
        if op == "truncate":
            new = steps[: draw(st.integers(0, len(steps)))]
        elif op == "extend":
            new = steps + (draw(any_step),)
        elif op == "alter" and steps:
            i = draw(st.integers(0, len(steps) - 1))
            changed = altered(steps[i], draw(st.integers(1, 2)), draw(st.integers(0, 2)))
            new = steps[:i] + (changed,) + steps[i + 1:]
        elif op == "verdict":
            verdict = draw(st.sampled_from(VERDICTS))
        if op != "duplicate" and draw(st.booleans()):
            violations[at] = (verdict, new)
        else:
            violations.insert(at + 1, (verdict, new))
    return cfg, violations


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return tmp_path_factory.mktemp("replay") / "report.json"


@settings(max_examples=60, deadline=None)
@given(case=violation_lists())
def test_replay_mode_gives_replay_of_each_schedule(report_path, case):
    cfg, violations = case
    report_path.write_text(json.dumps({"config": config_to_dict(cfg), "violations": [
        {"verdict": verdict, "steps": [
            {"process": kind, "core": core, "variant": variant} for kind, core, variant in steps
        ]} for verdict, steps in violations
    ]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--mode", "replay", "--trace-in", str(report_path), "--out", "json"])
    replays = json.loads(out.getvalue())["replays"]
    assert len(replays) == len(violations)
    want = EXIT_OK
    for (verdict, steps), result in zip(violations, replays):
        try:
            reproduced, error = replay(cfg, steps).verdict, None
        except ReplayError as exc:
            reproduced, error = None, str(exc)
        assert result == {"expected": verdict, "reproduced": reproduced,
                          "match": reproduced == verdict, "error": error}
        if reproduced is not None:
            want = max(want, EXIT_VIOLATION)
    if not all(r["match"] for r in replays):
        want = EXIT_USAGE
    assert code == want


def _schedules(cfg: KernelConfig) -> dict[str, tuple[ScheduleStep, ...]]:
    """The schedules of `cfg`'s violations, by verdict."""
    return {t.verdict: t.steps for t in explore(cfg, Limits()).violations}


HL_WAIT = KernelConfig(worker_count=2, task_plan=(H, L), fix_wait_need_sched=False)


@pytest.mark.parametrize("name, expected_code", [
    ("none", EXIT_OK),
    ("reproduced", EXIT_VIOLATION),
    ("wrong-verdict", EXIT_USAGE),
    ("reproduces-nothing", EXIT_USAGE),
    ("past-the-verdict", EXIT_USAGE),
    ("not-enabled", EXIT_USAGE),
])
def test_replay_mode_exit_code(tmp_path, capsys, name, expected_code):
    schedules = _schedules(HL_WAIT)
    deadlock, monitor = schedules[VERDICT_DEADLOCK], schedules[VERDICT_MONITOR]
    not_enabled = ("Worker", 1, 2)
    violations, want = {
        "none": ([], []),
        "reproduced": (
            [(VERDICT_DEADLOCK, deadlock), (VERDICT_MONITOR, monitor)],
            [(VERDICT_DEADLOCK, None), (VERDICT_MONITOR, None)]),
        "wrong-verdict": (
            [(VERDICT_MONITOR, monitor), (VERDICT_DEADLOCK, monitor)],
            [(VERDICT_MONITOR, None), (VERDICT_MONITOR, None)]),
        "reproduces-nothing": ([(VERDICT_DEADLOCK, deadlock[:1])], [(None, None)]),
        "past-the-verdict": (
            [(VERDICT_MONITOR, monitor + monitor[-1:])],
            [(None, f"{VERDICT_MONITOR} already at step #{len(monitor) - 1}, "
                    "before the trace ends")]),
        "not-enabled": (
            [(VERDICT_MONITOR, (not_enabled,))],
            [(None, "step #0 (Worker(1)[2]) is not enabled; trace diverges")]),
    }[name]
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"config": config_to_dict(HL_WAIT), "violations": [
        {"verdict": verdict, "steps": [
            {"process": kind, "core": core, "variant": variant} for kind, core, variant in steps
        ]} for verdict, steps in violations
    ]}))
    code = main(["--mode", "replay", "--trace-in", str(path), "--out", "json"])
    replays = json.loads(capsys.readouterr().out)["replays"]
    assert [(r["reproduced"], r["error"]) for r in replays] == want
    assert [r["match"] for r in replays] == [
        reproduced == verdict for (verdict, _), (reproduced, _) in zip(violations, want)]
    assert code == expected_code



@pytest.mark.usefixtures("cold_memos")  # the patched search must not share leaves
def test_reports_of_the_unreduced_model_still_replay(tmp_path, capsys, monkeypatch):
    # a report written before a finished task had its dead fields reset
    # (model.reset_dead_fields) replays under the model that resets them:
    # the reset moves counters, never a step. Here a heavy task finishes
    # with one preemption left on the way to a violation.
    argv = ["--tasks", "H,L", "--workers", "2", "--max-preemptions", "2",
            "--fault", "skip-resume-state"]
    with monkeypatch.context() as patch:
        patch.setattr(model, "reset_dead_fields", lambda buf, at: None)
        assert main(argv + ["--out", "json"]) == EXIT_VIOLATION
    old = capsys.readouterr().out
    doc = json.loads(old)
    assert doc["schema"] == 2 and len(doc["violations"]) > 1
    path = tmp_path / "report.json"
    path.write_text(old)
    live = []
    reset = model.reset_dead_fields

    def watched(buf, at):
        live.append(any(buf[at + f] for f in (T_NEED_SCHED, T_TIMER, T_PREEMPTIONS)))
        reset(buf, at)

    monkeypatch.setattr(model, "reset_dead_fields", watched)
    code = main(["--mode", "replay", "--trace-in", str(path), "--out", "json"])
    replays = json.loads(capsys.readouterr().out)["replays"]
    assert [(r["expected"], r["match"]) for r in replays] == [
        (v["verdict"], True) for v in doc["violations"]]
    assert code == EXIT_VIOLATION
    assert any(live)


@pytest.mark.parametrize("schema", [1, 2])
def test_replay_refuses_an_unknown_config_field(tmp_path, capsys, schema):
    # a misspelt bound would otherwise replay under the default one
    schedule = _schedules(HL_WAIT)[VERDICT_DEADLOCK]
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema": schema, "config": {"max_wait": 5}, "violations": [
        {"verdict": VERDICT_DEADLOCK, "steps": [
            {"process": kind, "core": core, "variant": variant} for kind, core, variant in schedule
        ]}]}))
    code = main(["--mode", "replay", "--trace-in", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == "schedcheck: error: unknown config field 'max_wait'\n"
