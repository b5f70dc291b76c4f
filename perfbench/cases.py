"""The benchmark's workloads: the cases each one runs, built from a seed, and
the expected answer every operation is checked against.

A case is one `schedcheck` command line, run in-process through
`schedcheck.cli.main`. An operation is one checked outcome: a case verdict,
a replay of a case's JSON report, or a walk.
"""

from __future__ import annotations

import fnmatch
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Per fault-matrix combo, the exit code and verdict triples (make_expected.py).
EXPECTED_FILE = HERE / "expected.json"
# The documented races, written by hand; every matching combo must show them.
RACES_FILE = HERE / "races.json"

WORKLOADS = ("explore", "walk")
SIZES = ("full", "tiny")

# `explore` runs the ladder and the fault matrix, about 14.5 s a pass.
#
# The ladder is three of ROADMAP's four clean rungs. H,H,L/2 alone takes
# about 28 s, too long for several passes per run.
LADDER = {"full": (("H,L,L", 2), ("H,H", 2), ("H,L,L", 3)), "tiny": (("H,L,L", 2),)}

FAULT_MATRIX_PLAN = ("H,L,L", 2)
# Far above any combo's violation count, so every search runs to completion.
UNLIMITED_VIOLATIONS = str(10**9)
EBS, SRS, SRC = "enqueue-before-state", "skip-resume-state", "skip-running-check"
# (fix_wait, fix_preempt, faults). The full set is 8 of the 32 combos, about
# 6.5 s: every toggle both ways, each documented race (races.json), the
# two largest reports and the clean control. The tiny set keeps one combo
# per race and every toggle.
COMBOS = {
    "full": (
        (False, True, ()),
        (True, False, ()),
        (True, False, (EBS, SRC)),
        (False, False, (EBS, SRC)),
        (True, True, (SRS,)),
        (True, True, (EBS, SRC)),
        (False, False, (EBS, SRS, SRC)),
        (True, True, ()),
    ),
    "tiny": (
        (False, True, ()),
        (True, False, ()),
        (True, False, (EBS, SRC)),
        (True, True, (SRS,)),
    ),
}

WALK_ARGV = ("--tasks", "H,H,H,H,L,L,L,L", "--workers", "4",
             "--max-waits", "3", "--max-preemptions", "3")
WALKS = {"full": 100, "tiny": 3}


@dataclass(frozen=True)
class Expected:
    """What a case must produce: exit code, a complete search, and exactly
    this set of (verdict, monitor current state, monitor symbol) triples."""

    exit: int
    verdicts: frozenset
    races: tuple = ()


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple
    expected: Expected
    replay: bool = False


def combo_id(fix_wait: bool, fix_preempt: bool, faults) -> str:
    on = {True: "on", False: "off"}
    return (f"fix_wait={on[fix_wait]} fix_preempt={on[fix_preempt]} "
            f"faults={'+'.join(sorted(faults)) or 'none'}")


def combo_argv(fix_wait: bool, fix_preempt: bool, faults) -> tuple:
    plan, workers = FAULT_MATRIX_PLAN
    argv = ["--tasks", plan, "--workers", str(workers),
            "--fix-wait", "on" if fix_wait else "off",
            "--fix-preempt", "on" if fix_preempt else "off",
            "--max-violations", UNLIMITED_VIOLATIONS]
    for fault in faults:
        argv += ["--fault", fault]
    return tuple(argv + ["--out", "json"])


def load_expected() -> dict:
    """{"fault_matrix": {combo id: {"exit", "verdicts"}}, "races": [...]}"""
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        answers = json.load(fh)
    with open(RACES_FILE, encoding="utf-8") as fh:
        races = json.load(fh)
    return {"fault_matrix": answers, "races": races}


def race_applies(race: dict, fix_wait: bool, fix_preempt: bool, faults) -> bool:
    when = race["when"]
    return (when.get("fix_wait", fix_wait) == fix_wait
            and when.get("fix_preempt", fix_preempt) == fix_preempt
            and sorted(when.get("faults", faults)) == sorted(faults))


def build_cases(workload: str, seed: int, size: str = "full",
                expected: dict | None = None) -> list[Case]:
    """The cases of one pass of `workload`; the seed sets their order and
    the walk seeds, and equal arguments give equal cases. `explore` runs the
    clean ladder and the fault matrix, whose reports are also replayed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(seed)
    clean = Expected(0, frozenset())
    if workload == "walk":
        seeds = rng.sample(range(2**31), WALKS[size])
        return [Case(f"walk:seed={s}", ("--mode", "walk", "--seed", str(s)) + WALK_ARGV
                     + ("--out", "json"), clean) for s in seeds]
    cases = [Case(f"ladder:{plan}/{workers}",
                  ("--tasks", plan, "--workers", str(workers), "--out", "json"), clean)
             for plan, workers in LADDER[size]]
    expected = expected if expected is not None else load_expected()
    for fix_wait, fix_preempt, faults in COMBOS[size]:
        cid = combo_id(fix_wait, fix_preempt, faults)
        answer = expected["fault_matrix"][cid]
        races = tuple(r for r in expected["races"]
                      if race_applies(r, fix_wait, fix_preempt, faults))
        cases.append(Case(f"fault-matrix:{cid}", combo_argv(fix_wait, fix_preempt, faults),
                          Expected(answer["exit"], frozenset(map(tuple, answer["verdicts"])),
                                   races), replay=True))
    rng.shuffle(cases)
    return cases


def verdict_triples(doc: dict) -> frozenset:
    out = set()
    for v in doc["violations"]:
        err = v["monitor_error"] or {}
        out.add((v["verdict"], err.get("current_state"), err.get("symbol")))
    return frozenset(out)


def check_case(case: Case, code: int, doc: dict) -> list[str]:
    """Problems with one case verdict; an empty list means it is correct."""
    problems = []
    if code != case.expected.exit:
        problems.append(f"exit {code}, expected {case.expected.exit}")
    if doc["incomplete"]:
        problems.append("search incomplete")
    got = verdict_triples(doc)
    if got != case.expected.verdicts:
        problems.append(f"verdicts {sorted(got, key=str)}, "
                        f"expected {sorted(case.expected.verdicts, key=str)}")
    for race in case.expected.races:
        for triple in race.get("requires", ()):
            if tuple(triple) not in got:
                problems.append(f"{race['race']}: missing {tuple(triple)}")
        pattern = race.get("violations_only_from")
        if pattern is not None:
            states = [t[1] for t in got]
            if not states or not all(s and fnmatch.fnmatchcase(s, pattern) for s in states):
                problems.append(f"{race['race']}: violations {sorted(got, key=str)} "
                                f"not all from {pattern}")
    return problems


def check_replay(case_doc: dict, code: int, replay_doc: dict) -> list[str]:
    """Problems with replaying one case's JSON report."""
    problems = []
    want_exit = 1 if case_doc["violations"] else 0
    if code != want_exit:
        problems.append(f"replay exit {code}, expected {want_exit}")
    replays = replay_doc["replays"]
    if len(replays) != len(case_doc["violations"]):
        problems.append(f"{len(replays)} replays for {len(case_doc['violations'])} violations")
    bad = [i for i, (r, v) in enumerate(zip(replays, case_doc["violations"]))
           if not r["match"] or r["expected"] != v["verdict"]]
    if bad:
        problems.append(f"{len(bad)} replays not MATCH, first #{bad[0]}")
    return problems
