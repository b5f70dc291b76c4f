"""CLI tests: flag parsing, exit codes, JSON round-trips, and the
text/JSON consistency of reported verdicts."""

from __future__ import annotations

import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from schedcheck.cli import (
    EXIT_INCOMPLETE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_parser,
    config_from_args,
    config_to_dict,
    emit_json,
    exit_code_for,
    main,
    matrix_configs,
    parse_args,
    parse_task_plan,
    report_to_doc,
    step_from_dict,
    step_to_dict,
    violations_from_doc,
)
from schedcheck import explorer
from schedcheck.explorer import Limits, ReplayError, explore, process_name, replay
from schedcheck.model import FAULTS, ConfigurationError, KernelConfig, TaskKind
from test_settle_projection import CONFIGS, _reachable

H = TaskKind.HEAVY
L = TaskKind.LIGHT


class TestParsing:
    def test_task_plan(self):
        assert parse_task_plan("H,L,L") == (H, L, L)
        assert parse_task_plan("h , l") == (H, L)

    def test_malformed_task_plan(self):
        with pytest.raises(ConfigurationError):
            parse_task_plan("H,X")

    def test_walk_requires_seed(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["--mode", "walk"])
        assert err.value.code == 2

    def test_replay_requires_trace(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["--mode", "replay"])
        assert err.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["--frobnicate"])
        assert err.value.code == 2

    def test_fault_choices_are_the_model_vocabulary(self):
        (action,) = [a for a in build_parser()._actions if a.dest == "fault"]
        assert action.choices == sorted(FAULTS)

    def test_unknown_fault_flag_is_usage_error(self, capsys):
        assert main(["--fault", "bogus"]) == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_defaults(self):
        args = parse_args([])
        assert args.mode == "explore"
        assert args.tasks is None  # resolved to H,L,L in config building

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_faults_do_not_leak_into_the_next_parse(self):
        (action,) = [a for a in build_parser()._actions if a.dest == "fault"]
        a, b = sorted(FAULTS)[:2]
        assert parse_args(["--fault", a, "--fault", b]).fault == [a, b]
        assert parse_args([]).fault == []
        assert action.default == []

    def test_a_usage_error_leaves_the_next_parse_intact(self):
        assert parse_args(["--tasks", "H", "--seed", "3"]).seed == 3
        with pytest.raises(SystemExit) as err:
            parse_args(["--mode", "walk", "--tasks", "L", "--max-steps", "x"])
        assert err.value.code == 2
        args = parse_args(["--mode", "walk", "--seed", "5"])
        assert (args.mode, args.seed, args.tasks, args.max_steps) == ("walk", 5, None, 100_000)

    def test_help_is_the_same_on_every_call(self, capsys):
        assert main(["--help"]) == 0
        first = capsys.readouterr().out
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("usage: schedcheck")

    def test_no_args_echoes_default_config(self):
        cfg = config_from_args(parse_args([]))
        assert config_to_dict(cfg) == {
            "workers": 2,
            "tasks": "H,L,L",
            "fix_wait": True,
            "fix_preempt": True,
            "faults": [],
            "max_waits": 1,
            "max_preemptions": 1,
        }


class TestDocuments:
    def test_config_round_trip(self):
        cfg = KernelConfig(
            worker_count=3,
            task_plan=(H, L),
            fix_wait_need_sched=False,
            faults=frozenset({"skip-running-check"}),
            max_waits_per_task=2,
        )
        assert config_from_args(parse_args([]), base=config_to_dict(cfg)) == cfg

    def test_step_round_trip(self):
        step = ("Worker", 2, 0)
        assert step_to_dict(step) == {"process": "Worker", "core": 2, "variant": 0}
        assert step_from_dict(step_to_dict(step)) == step

    def test_every_enabled_step_round_trips_and_keeps_its_name(self):
        steps = {step for config in CONFIGS
                 for _, (_, _, options) in _reachable(config) for step in options}
        for step in steps:
            assert step_from_dict(step_to_dict(step)) == step
        names = {process_name(step) for step in steps}
        assert {"Worker(1)", "PrimaryTimer", "PrimaryPreempter", "Spawner"} <= names
        # a replay error names the step with its variant
        with pytest.raises(ReplayError, match=re.escape("step #0 (PrimaryTimer[1]) is not")):
            replay(KernelConfig(), (("PrimaryTimer", None, 1),))

    def test_a_document_parses_to_step_triples(self):
        worker = {"process": "Worker", "core": 1, "variant": 0}
        spawner = {"process": "Spawner", "core": None, "variant": 0}
        doc = {"violations": [{"verdict": "Deadlock", "steps": [worker, dict(worker)]},
                              {"verdict": "Deadlock", "steps": [spawner, dict(worker)]}]}
        _, [(_, first), (_, second)] = violations_from_doc(doc)
        assert first == (("Worker", 1, 0), ("Worker", 1, 0))
        assert second == (("Spawner", None, 0), ("Worker", 1, 0))

    @pytest.mark.parametrize("field", ["core", "variant"])
    def test_a_bool_twin_of_a_parsed_step_is_still_rejected(self, field):
        # True == 1 and hash(True) == hash(1), but a flag is no core or variant
        step = {"process": "Worker", "core": 1, "variant": 1}
        doc = {"violations": [{"verdict": "Deadlock", "steps": [step, {**step, field: True}]}]}
        with pytest.raises(ConfigurationError, match=f"step {field} must be int"):
            violations_from_doc(doc)

    @pytest.mark.parametrize("field", ["core", "variant"])
    @pytest.mark.parametrize("value", [[1], {"core": 1}])
    def test_an_unhashable_step_field_is_rejected(self, field, value):
        step = {"process": "Worker", "core": 1, "variant": 0}
        doc = {"violations": [{"verdict": "Deadlock", "steps": [step, {**step, field: value}]}]}
        with pytest.raises(ConfigurationError, match=f"step {field} must be int"):
            violations_from_doc(doc)

    def test_report_json_round_trip(self):
        cfg = KernelConfig(
            worker_count=1,
            task_plan=(H,),
            fix_wait_need_sched=False,
            max_preemptions_per_task=0,
        )
        doc = report_to_doc(explore(cfg), "explore")
        assert json.loads(emit_json(doc)) == doc

    def test_exit_code_is_pure_function_of_report(self):
        assert exit_code_for({"violations": [], "incomplete": False}) == EXIT_OK
        assert exit_code_for({"violations": [1], "incomplete": False}) == EXIT_VIOLATION
        assert exit_code_for({"violations": [1], "incomplete": True}) == EXIT_VIOLATION
        assert exit_code_for({"violations": [], "incomplete": True}) == EXIT_INCOMPLETE


# Strings with the characters json.dumps escapes: quote, backslash, control
# characters and non-ASCII ones.
ESCAPED = 'az "\\/\n\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001f600'
TEXT = st.text(st.sampled_from(ESCAPED), max_size=5) | st.text(max_size=5)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-1, 1)
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | TEXT
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


@st.composite
def json_documents(draw) -> dict:
    """A report-like document: a random tree plus flat objects repeated at one
    depth, next to their twins with 0 and 1 values turned into bools."""
    flat = draw(st.dictionaries(TEXT, SCALARS, max_size=3))
    twin = {k: bool(v) if type(v) is int and v in (0, 1) else v for k, v in flat.items()}
    tree = draw(TREES)
    return {"tree": tree, "repeats": [flat, twin, flat, [], {}, [flat, twin, tree], tree]}


class TestEmitJson:
    """emit_json writes exactly the bytes of json.dumps(sort_keys, indent=2)
    and one newline: the golden digests and the tracer rely on that form."""

    @settings(max_examples=300, deadline=None)
    @given(json_documents())
    def test_matches_json_dumps(self, doc):
        assert emit_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_bool_and_int_twins_are_told_apart(self):
        doc = {"a": [{"x": 1}, {"x": True}, {"x": 0}, {"x": False}, {"x": 1}]}
        assert emit_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert [line.strip() for line in emit_json(doc).splitlines() if '"x"' in line] == [
            '"x": 1', '"x": true', '"x": 0', '"x": false', '"x": 1']

    def test_a_real_report_matches_json_dumps(self):
        config = KernelConfig(worker_count=2, task_plan=(H, L), fix_wait_need_sched=False)
        doc = report_to_doc(explore(config), "explore")
        assert doc["violations"]
        assert emit_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestMainExplore:
    def test_small_clean_run_exits_zero(self, capsys):
        code = main(["--tasks", "H", "--workers", "1", "--max-preemptions", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "result: ok" in out

    def test_lost_wakeup_exits_one_with_deadlock_trace(self, capsys):
        code = main(
            ["--fix-wait", "off", "--tasks", "H", "--workers", "1",
             "--max-preemptions", "0"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "Deadlock" in out
        assert "timer fire" in out

    def test_state_budget_exits_three(self, capsys):
        code = main(["--max-states", "10"])
        assert code == EXIT_INCOMPLETE

    def test_nonpositive_violation_cap_is_usage_error(self, capsys):
        code = main(["--max-violations", "0"])
        assert code == EXIT_USAGE

    def test_text_and_json_report_same_verdicts(self, capsys):
        flags = ["--fix-wait", "off", "--tasks", "H", "--workers", "1",
                 "--max-preemptions", "0"]
        code_text = main(flags)
        text = capsys.readouterr().out
        code_json = main(flags + ["--out", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code_text == code_json
        assert text.count("violation 1:") == 1
        assert len(doc["violations"]) == text.count("violation ")
        assert doc["violations"][0]["verdict"] in text

    def test_faults_flags_land_in_config(self, capsys):
        code = main(
            ["--tasks", "H", "--workers", "2", "--max-waits", "0",
             "--fix-preempt", "off",
             "--fault", "enqueue-before-state", "--fault", "skip-running-check",
             "--out", "json", "--max-violations", "64"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATION
        assert doc["config"]["faults"] == ["enqueue-before-state", "skip-running-check"]

    def test_walk_mode_runs_with_seed(self, capsys):
        code = main(["--mode", "walk", "--seed", "3", "--tasks", "H",
                     "--workers", "1", "--max-preemptions", "0"])
        assert code == EXIT_OK

    def test_quiet_suppresses_trace_lines(self, capsys):
        flags = ["--fix-wait", "off", "--tasks", "H", "--workers", "1",
                 "--max-preemptions", "0"]
        main(flags + ["--quiet"])
        quiet_out = capsys.readouterr().out
        assert "timer fire" not in quiet_out
        assert "Deadlock" in quiet_out


class TestMainReplay:
    def test_replay_round_trip(self, tmp_path, capsys):
        flags = ["--fix-wait", "off", "--tasks", "H", "--workers", "1",
                 "--max-preemptions", "0", "--out", "json"]
        main(flags)
        report_file = tmp_path / "report.json"
        report_file.write_text(capsys.readouterr().out)
        code = main(["--mode", "replay", "--trace-in", str(report_file)])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "MATCH" in out and "MISMATCH" not in out

    def test_replay_under_different_toggles_reports_divergence(self, tmp_path, capsys):
        flags = ["--fix-wait", "off", "--tasks", "H", "--workers", "1",
                 "--max-preemptions", "0", "--out", "json"]
        main(flags)
        report_file = tmp_path / "report.json"
        report_file.write_text(capsys.readouterr().out)
        # flipping the fix on invalidates or changes the recorded schedule
        code = main(["--mode", "replay", "--trace-in", str(report_file),
                     "--fix-wait", "on"])
        out = capsys.readouterr().out
        assert code == EXIT_USAGE
        assert "MISMATCH" in out or "diverges" in out

    def test_replay_of_a_schema_1_report(self, tmp_path, capsys):
        # a hand-written report of the first schema, which had no per-class
        # counts and no incomplete_reason: the lost-wakeup deadlock
        worker, timer = {"process": "Worker", "core": 1, "variant": 0}, {
            "process": "PrimaryTimer", "core": None, "variant": 0}
        doc = {
            "schema": 1,
            "tool": {"name": "schedcheck", "version": "0.1.0"},
            "mode": "explore",
            "seed": None,
            "config": {"workers": 1, "tasks": "H", "fix_wait": False, "fix_preempt": True,
                       "faults": [], "max_waits": 1, "max_preemptions": 0},
            "counters": {"states_visited": 11, "transitions_taken": 10, "max_depth": 8,
                         "quiescent_ok": 1},
            "incomplete": False,
            "all_paths_terminal_ok": False,
            "violations": [{
                "verdict": "Deadlock",
                "steps": [worker, worker, worker, timer, worker],
                "lines": [],
                "monitor_error": None,
                "final_task_states": {"0": "Waiting(false)"},
                "final_queue": [],
                "detail": "no step enabled, tasks not terminal",
            }],
        }
        report_file = tmp_path / "report.json"
        report_file.write_text(json.dumps(doc))
        code = main(["--mode", "replay", "--trace-in", str(report_file), "--out", "json"])
        replays = json.loads(capsys.readouterr().out)["replays"]
        assert code == EXIT_VIOLATION
        assert replays == [{"expected": "Deadlock", "reproduced": "Deadlock", "match": True,
                            "error": None}]

    def test_missing_trace_file_is_usage_error(self, capsys):
        code = main(["--mode", "replay", "--trace-in", "/nonexistent.json"])
        assert code == EXIT_USAGE


class TestMalformedTraceFile:
    """A malformed report is a usage error (exit 2, one message line), never
    a traceback and never exit 1, which means a reproduced violation."""

    @staticmethod
    def replay_doc(tmp_path, capsys, doc) -> str:
        return TestMalformedTraceFile.replay_text(tmp_path, capsys, json.dumps(doc))

    @staticmethod
    def replay_text(tmp_path, capsys, text: str) -> str:
        path = tmp_path / "report.json"
        path.write_text(text)
        capsys.readouterr()
        code = main(["--mode", "replay", "--trace-in", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("schedcheck: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    @staticmethod
    def report(capsys) -> dict:
        main(["--fix-wait", "off", "--tasks", "H", "--workers", "1",
              "--max-preemptions", "0", "--out", "json"])
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("schema", [0, 3, "2", True, None])
    def test_unknown_schema(self, tmp_path, capsys, schema):
        doc = self.report(capsys)
        doc["schema"] = schema
        err = self.replay_doc(tmp_path, capsys, doc)
        assert f"schema {schema!r}, expected 1 or 2" in err

    def test_violation_without_steps(self, tmp_path, capsys):
        doc = self.report(capsys)
        del doc["violations"][0]["steps"]
        assert "steps" in self.replay_doc(tmp_path, capsys, doc)

    def test_string_worker_count(self, tmp_path, capsys):
        doc = self.report(capsys)
        doc["config"]["workers"] = "1"
        assert "workers" in self.replay_doc(tmp_path, capsys, doc)

    def test_nesting_past_the_parser_stack(self, tmp_path, capsys):
        text = "[" * 200_000 + "]" * 200_000
        assert "cannot read trace file" in self.replay_text(tmp_path, capsys, text)

    def test_top_level_list(self, tmp_path, capsys):
        self.replay_doc(tmp_path, capsys, [self.report(capsys)])

    def test_unknown_process_kind(self, tmp_path, capsys):
        doc = self.report(capsys)
        doc["violations"][0]["steps"][0]["process"] = "Interloper"
        assert "Interloper" in self.replay_doc(tmp_path, capsys, doc)

    def test_list_fault(self, tmp_path, capsys):
        doc = {"config": {"faults": [[1]]}, "violations": []}
        assert "fault [1]" in self.replay_doc(tmp_path, capsys, doc)

    def test_unknown_fault(self, tmp_path, capsys):
        doc = self.report(capsys)
        doc["config"]["faults"] = ["bogus"]
        assert "unknown fault 'bogus'" in self.replay_doc(tmp_path, capsys, doc)

    def test_object_fault(self, tmp_path, capsys):
        doc = {"config": {"faults": [{"name": "skip-resume-state"}]}, "violations": []}
        assert "fault {" in self.replay_doc(tmp_path, capsys, doc)

    @pytest.mark.parametrize("field", ["process", "core", "variant"])
    @pytest.mark.parametrize("value", [[1], {"core": 1}])
    def test_unhashable_step_field(self, tmp_path, capsys, field, value):
        doc = self.report(capsys)
        doc["violations"][0]["steps"][1][field] = value
        assert f"{value!r}" in self.replay_doc(tmp_path, capsys, doc)

    @pytest.mark.parametrize("field", ["max_waits", "max_preemptions"])
    def test_oversized_bound(self, tmp_path, capsys, field):
        doc = self.report(capsys)
        doc["config"][field] = 10**30
        assert "too large" in self.replay_doc(tmp_path, capsys, doc)

    def test_billion_waits_is_refused_before_any_script_is_built(self, tmp_path, capsys):
        doc = self.report(capsys)
        doc["config"]["max_waits"] = 10**9
        start = time.perf_counter()
        assert "too large" in self.replay_doc(tmp_path, capsys, doc)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("flag", ["--max-waits", "--max-preemptions"])
def test_oversized_bound_flag_is_a_usage_error(capsys, flag):
    assert main([flag, str(10**30)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("schedcheck: error: ") and err.count("\n") == 1


def test_billion_waits_flag_is_a_usage_error(capsys):
    # a heavy script of 2 x 10**9 actions would exhaust memory first
    start = time.perf_counter()
    assert main(["--max-waits", str(10**9)]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("schedcheck: error: ") and err.count("\n") == 1
    assert "too large" in err


def test_widest_accepted_wait_bound_still_runs(capsys):
    # 2 + 2 x 16,382 = 32,766 is the largest script length two-byte cells hold
    code = main(["--max-waits", "16382", "--mode", "walk", "--seed", "1", "--max-steps", "5"])
    assert code in (EXIT_OK, EXIT_INCOMPLETE)


class TestCrossProcessDeterminism:
    def test_reports_do_not_depend_on_hash_seed(self):
        import subprocess
        import os
        import sys

        outs = []
        for hash_seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "schedcheck.cli", "--tasks", "H,L",
                 "--max-waits", "0", "--fix-preempt", "off", "--out", "json",
                 "--max-violations", "64"],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 1
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["--tasks", "H,L", "--max-waits", "0", "--fix-preempt", "off", "--out", "json"],
    ["--tasks", "H,L", "--quiet"],
    ["--mode", "walk"],
], ids=["violation", "clean", "usage"])
def test_python_m_schedcheck_is_cli_main(argv, capsys):
    # `python -m schedcheck` runs a checkout that is not installed
    import os
    import subprocess
    import sys
    from pathlib import Path

    import schedcheck

    src = str(Path(schedcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "schedcheck", *argv],
                          capture_output=True, text=True, env=env)
    code = main(argv)
    assert (proc.stdout, proc.returncode) == (capsys.readouterr().out, code)


# The exact stdout of two batch runs, recorded before the batch paths became
# one driver: every line of a sweep and of a matrix keeps its bytes.
PINNED_SWEEP = (
    "plan L: states=5 violations=0 complete exit=0\n"
    "plan H: states=11 violations=1 complete exit=1\n"
)
PINNED_MATRIX_H_L = (
    "fix_wait=on fix_preempt=on faults=none: states=109 violations=0 complete exit=0\n"
    "fix_wait=on fix_preempt=on faults=enqueue-before-state: states=113 violations=0 complete exit=0\n"
    "fix_wait=on fix_preempt=on faults=skip-resume-state: states=112 violations=1 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=on faults=skip-running-check: states=109 violations=0 complete exit=0\n"
    "fix_wait=on fix_preempt=on faults=enqueue-before-state,skip-resume-state: states=119 violations=1 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=on faults=enqueue-before-state,skip-running-check: states=119 violations=1 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=on faults=skip-resume-state,skip-running-check: states=112 violations=1 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=on faults=enqueue-before-state,skip-resume-state,skip-running-check: states=125 violations=2 (AssertionFailure, MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=off faults=none: states=91 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=off faults=enqueue-before-state: states=110 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=off faults=skip-resume-state: states=91 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=off faults=skip-running-check: states=91 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=off faults=enqueue-before-state,skip-resume-state: states=110 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=off faults=enqueue-before-state,skip-running-check: states=119 violations=4 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=off faults=skip-resume-state,skip-running-check: states=91 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=on fix_preempt=off faults=enqueue-before-state,skip-resume-state,skip-running-check: states=119 violations=3 (AssertionFailure, MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=on faults=none: states=109 violations=0 complete exit=0\n"
    "fix_wait=off fix_preempt=on faults=enqueue-before-state: states=113 violations=0 complete exit=0\n"
    "fix_wait=off fix_preempt=on faults=skip-resume-state: states=112 violations=1 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=on faults=skip-running-check: states=109 violations=0 complete exit=0\n"
    "fix_wait=off fix_preempt=on faults=enqueue-before-state,skip-resume-state: states=119 violations=1 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=on faults=enqueue-before-state,skip-running-check: states=119 violations=1 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=on faults=skip-resume-state,skip-running-check: states=112 violations=1 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=on faults=enqueue-before-state,skip-resume-state,skip-running-check: states=125 violations=2 (AssertionFailure, MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=off faults=none: states=91 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=off faults=enqueue-before-state: states=110 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=off faults=skip-resume-state: states=91 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=off faults=skip-running-check: states=91 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=off faults=enqueue-before-state,skip-resume-state: states=110 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=off faults=enqueue-before-state,skip-running-check: states=119 violations=4 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=off faults=skip-resume-state,skip-running-check: states=91 violations=2 (MonitorViolation) complete exit=1\n"
    "fix_wait=off fix_preempt=off faults=enqueue-before-state,skip-resume-state,skip-running-check: states=119 violations=3 (AssertionFailure, MonitorViolation) complete exit=1\n"
)


class TestBatchOutput:
    def test_sweep_prints_the_pinned_bytes(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_text("L\nH\n")
        code = main(["--sweep", str(plans), "--workers", "1",
                     "--max-preemptions", "0", "--fix-wait", "off"])
        assert capsys.readouterr().out == PINNED_SWEEP
        assert code == EXIT_VIOLATION

    def test_matrix_prints_the_pinned_bytes(self, capsys):
        code = main(["--matrix", "--tasks", "H,L", "--max-waits", "0"])
        assert capsys.readouterr().out == PINNED_MATRIX_H_L
        assert code == EXIT_VIOLATION


class TestSweep:
    def test_sweep_runs_each_plan(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_text("H\nL\n")
        code = main(["--sweep", str(plans), "--workers", "1",
                     "--max-preemptions", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "plan H:" in out and "plan L:" in out

    def test_sweep_skips_blank_lines_and_comments_even_indented(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_text("# plans\n\n  # an indented note\n   \nH\n\t# a tabbed note\n")
        code = main(["--sweep", str(plans), "--workers", "1",
                     "--max-preemptions", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert len(lines) == 1 and lines[0].startswith("plan H:")

    @pytest.mark.parametrize("flags", [
        ["--out", "json"], ["--mode", "walk", "--seed", "1"],
        ["--mode", "replay", "--trace-in", "report.json"],
        # the file names the plans; valid or not, --tasks would be ignored
        ["--tasks", "X", "--workers", "1"], ["--tasks", "H,L"],
    ])
    def test_sweep_rejects_flags_it_would_ignore(self, tmp_path, capsys, flags):
        plans = tmp_path / "plans.txt"
        plans.write_text("H\n")
        code = main(["--sweep", str(plans)] + flags)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("schedcheck: error: --sweep cannot be combined")
        assert captured.err.count("\n") == 1

    def test_sweep_propagates_worst_exit(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_text("H\n")
        code = main(["--sweep", str(plans), "--workers", "1",
                     "--max-preemptions", "0", "--fix-wait", "off"])
        assert code == EXIT_VIOLATION

    def test_sweep_names_the_line_of_a_bad_plan(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_text("H\nX\n")
        code = main(["--sweep", str(plans)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == (
            "schedcheck: error: sweep file line 2: bad task kind 'X' (expected H or L)\n"
        )

    def test_sweep_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_bytes(b"H\n\xff\xfe\n")
        code = main(["--sweep", str(plans)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("schedcheck: error: cannot read sweep file: ")
        assert captured.err.count("\n") == 1

    def test_sweep_matrix_prints_each_plans_matrix_in_file_order(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_text("H\nH,L\n")
        argv = ["--matrix", "--max-waits", "0", "--max-preemptions", "0"]
        code = main(["--sweep", str(plans)] + argv)
        lines = capsys.readouterr().out.splitlines()
        expected, worst = [], EXIT_OK
        for plan in ("H", "H,L"):
            worst = max(worst, main(argv + ["--tasks", plan]))
            expected += [f"plan {plan} {line}" for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 64
        assert lines == expected
        assert code == worst


class TestMatrix:
    ARGV = ["--tasks", "H,L", "--max-waits", "0"]

    def test_matrix_lists_every_combination_once(self):
        configs = matrix_configs(KernelConfig())
        combos = {(c.fix_wait_need_sched, c.fix_preempt_need_sched, c.faults) for c in configs}
        assert len(configs) == len(combos) == 4 * 2 ** len(FAULTS)
        assert configs[0] == KernelConfig()

    def test_matrix_lines_match_searches_from_empty_memos(self, capsys):
        code = main(["--matrix"] + self.ARGV)
        lines = capsys.readouterr().out.splitlines()
        configs = matrix_configs(config_from_args(parse_args(self.ARGV)))
        assert len(lines) == len(configs)
        worst = EXIT_OK
        for line, config in zip(lines, configs):
            explorer.release_plan_memos()
            doc = report_to_doc(explore(config, Limits(max_violations=16)), "explore")
            worst = max(worst, exit_code_for(doc))
            c = doc["config"]
            assert line.startswith(
                f"fix_wait={'on' if c['fix_wait'] else 'off'} "
                f"fix_preempt={'on' if c['fix_preempt'] else 'off'} "
                f"faults={','.join(c['faults']) or 'none'}: "
                f"states={doc['counters']['states_visited']} "
                f"violations={len(doc['violations'])}"
            )
            assert line.endswith(f"complete exit={exit_code_for(doc)}")
            for verdict in {v["verdict"] for v in doc["violations"]}:
                assert verdict in line
        assert code == worst == EXIT_VIOLATION

    @pytest.mark.parametrize("flags,named", [
        (["--fix-wait", "off"], "--fix-wait"), (["--fix-preempt", "on"], "--fix-preempt"),
        (["--fault", "skip-resume-state"], "--fault"),
        (["--out", "json"], "--out json"), (["--mode", "walk", "--seed", "1"], "--mode walk"),
    ])
    def test_matrix_rejects_flags_it_would_ignore(self, capsys, flags, named):
        code = main(["--matrix"] + flags)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"schedcheck: error: --matrix cannot be combined with {named}\n"


def test_a_sweep_plan_releases_its_memos():
    from schedcheck.cli import _explore_plan

    explorer.release_plan_memos()
    [doc] = _explore_plan([KernelConfig(task_plan=(H,), worker_count=1)], Limits())
    assert doc["counters"]["states_visited"] > 0
    assert explorer._plan_memos.cache_info().currsize == 0
