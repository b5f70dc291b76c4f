"""The benchmark's own tests: every workload end to end at a tiny size, the
expected-answer checks, the tracer's install/uninstall, the speed
calibration, and the contract between BENCHMARK.json and what run.py prints.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import time
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import cases as workloads  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from schedcheck import cli, explorer, model, monitor  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_end_to_end_at_tiny_size(workload):
    plain = run.measure(workload, seed=5, seconds=0.1, trace=False, size="tiny")
    traced = run.measure(workload, seed=5, seconds=0.1, trace=True, size="tiny")
    for record, names in ((plain, [m["name"] for m in BENCHMARK["end_to_end"]]),
                          (traced, [m["name"] for m in BENCHMARK["per_layer"]])):
        result = record["result"]
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(names)
    # the traced pass reproduced the untraced pass's per-case counters
    assert [p["traced"] for p in traced["passes"]] == [False, True]
    assert traced["cases"] == plain["cases"]
    assert traced["result"]["metrics"]["explorer.states_visited"]["value"] == sum(
        c["states_visited"] for c in plain["cases"].values())


def test_seed_sets_case_order_and_walk_seeds():
    assert workloads.build_cases("walk", 1) == workloads.build_cases("walk", 1)
    assert workloads.build_cases("walk", 1) != workloads.build_cases("walk", 2)
    full = workloads.build_cases("explore", 1)
    assert len(full) == 3 + 8 and sorted(c.id for c in full) == sorted(
        c.id for c in workloads.build_cases("explore", 2))


def test_correct_answers_pass(tmp_path):
    result = worker.run_pass(workloads.build_cases("explore", 0, "tiny"), tmp_path)
    assert (result["attempted"], result["failed"]) == (1 + 4 + 4, 0), result["failures"]


def test_wrong_expected_exit_raises_failed_frac(tmp_path):
    cases = [c for c in workloads.build_cases("explore", 0, "tiny") if not c.replay]
    wrong = [dataclasses.replace(c, expected=dataclasses.replace(c.expected, exit=1))
             for c in cases]
    result = worker.run_pass(wrong, tmp_path)
    assert result["failed"] == len(cases) and "exit 0, expected 1" in result["failures"][0]


def test_wrong_expected_verdicts_raise_failed_frac(tmp_path):
    expected = workloads.load_expected()
    cid = workloads.combo_id(True, False, ())
    expected["fault_matrix"][cid] = {"exit": 1, "verdicts": [["Deadlock", None, None]]}
    cases = workloads.build_cases("explore", 0, "tiny", expected)
    result = worker.run_pass(cases, tmp_path)
    assert result["failed"] == 1 and cid in result["failures"][0]


def test_race_rules_are_checked_against_the_output(tmp_path):
    expected = workloads.load_expected()
    for race in expected["races"]:
        if "requires" in race:
            race["requires"] = [["MonitorViolation", "Waiting(false)", "Panic"]]
        else:
            race["violations_only_from"] = "Running(*)"
    result = worker.run_pass(workloads.build_cases("explore", 0, "tiny", expected), tmp_path)
    assert result["failed"] == 4, result["failures"]


@pytest.mark.parametrize("size", workloads.SIZES)
def test_combos_keep_every_toggle_and_race(size):
    combos = workloads.COMBOS[size]
    assert {c[0] for c in combos} == {c[1] for c in combos} == {True, False}
    for fault in (workloads.EBS, workloads.SRS, workloads.SRC):
        assert {fault in c[2] for c in combos} == {True, False}
    expected = workloads.load_expected()
    for race in expected["races"]:
        assert any(workloads.race_applies(race, *combo) for combo in combos)
    assert sorted(expected["fault_matrix"]) == sorted(
        workloads.combo_id(*c) for c in workloads.COMBOS["full"])


def originals():
    return [model.KernelState.clone, model.KernelState.poll_step, model.snapshot,
            explorer.snapshot, explorer.initial_state, explorer.enabled,
            monitor.MonitorRegistry.fire, cli.main, cli.explore, cli.emit_json]


def test_tracer_installs_spans_and_restores_every_attribute(tmp_path):
    before = originals()
    spans = tracer.Tracer()
    with spans.installed():
        assert len(tracer.installed_spans()) > len(tracer.TARGETS)
        assert all(a is not b for a, b in zip(originals(), before))
        worker.run_pass(workloads.build_cases("walk", 0, "tiny"), tmp_path, spans)
    assert tracer.installed_spans() == []
    assert all(a is b for a, b in zip(originals(), before))
    totals = run.span_totals(spans.cases)
    assert totals["cli.main"][0] == 3 and totals["explorer.random_walk"][0] == 3
    assert totals["model.snapshot"][3] > 0


def test_tracer_restores_attributes_after_an_error():
    before = originals()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            raise RuntimeError("boom")
    assert tracer.installed_spans() == []
    assert all(a is b for a, b in zip(originals(), before))


def test_self_time_excludes_child_spans():
    spans = tracer.Tracer()
    spans.begin_case("c")
    with spans.installed():
        explorer.explore(model.KernelConfig(task_plan=(model.TaskKind.LIGHT,)))
    rec = spans.cases["c"]
    # every other span nests inside the one explore call, so the self times
    # of all spans add up to explore's total time
    assert rec["explorer.explore"][0] == 1
    assert sum(r[1] for r in rec.values()) == pytest.approx(rec["explorer.explore"][2])
    assert all(r[1] <= r[2] for r in rec.values())


def test_sampler_takes_chunks_out_and_restores_the_alarm():
    def previous(signum, frame):
        raise AssertionError("the previous SIGALRM handler ran")

    signal.signal(signal.SIGALRM, previous)
    try:
        sampler = calibrate.Sampler()
        with sampler.sampling():
            deadline = time.perf_counter() + 4 * calibrate.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    # one chunk before the region, one after, and the alarms' in between
    inside = sampler.samples[1:-1]
    assert len(inside) >= 2 and sampler.busy_s == pytest.approx(sum(inside))
    assert 4 * calibrate.INTERVAL_S <= sampler.wall_s
    assert sampler.calibrated() == pytest.approx(
        (sampler.wall_s - sampler.busy_s) * calibrate.speed_scale(sampler.samples))


def test_speed_scale_is_reference_over_chunk_time():
    ref = calibrate.REF_CHUNK_S
    assert calibrate.speed_scale([ref, ref]) == pytest.approx(1.0)
    # a machine twice as slow counts each second as half a reference second
    assert calibrate.speed_scale([2 * ref]) == pytest.approx(0.5)


def test_benchmark_json_matches_what_run_prints():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
