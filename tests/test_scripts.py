"""Smoke tests for scripts/: each script runs to exit 0 and prints its
expected header lines."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_known_races():
    lines = run_script("reproduce_known_races.py").splitlines()
    assert lines[1].startswith("lost wakeup: ")
    assert "first counterexample (Deadlock):" in lines
    assert lines.count("first counterexample (MonitorViolation):") == 3
    assert any(line.startswith("  #0 Worker(1) | ") for line in lines)


def test_state_space_table():
    lines = run_script("state_space_table.py", "--plan", "H,L", "--max-bound", "0").splitlines()
    assert lines[0] == "plan=H,L workers=2"
    assert lines[1].split() == ["waits", "preempts", "states", "transitions", "depth", "seconds"]
    assert lines[2].split()[:5] == ["0", "0", "19", "30", "8"]


def test_step_costs():
    lines = run_script("step_costs.py", "--plan", "H,L,L", "--workers", "2", "--max-waits", "1",
                       "--max-preemptions", "1", "--walks", "2", "--repeat", "1").splitlines()
    assert lines[0] == "plan=H,L,L workers=2 waits=1 preemptions=1"
    assert lines[1].startswith("walks=2 steps=")
    assert [line.split()[0] for line in lines[2:]] == [
        "part", "_settle", "_run", "snapshot", "draw", "sum", "walk", "render"]
    assert all(float(line.split()[1]) > 0 for line in lines[3:])


def test_transition_costs():
    lines = run_script("transition_costs.py", "--plan", "H,L", "--workers", "2",
                       "--fix-wait", "off", "--repeat", "1").splitlines()
    assert lines[0] == "plan=H,L workers=2 waits=1 preemptions=1"
    assert lines[1].startswith("states=") and " transitions=" in lines[1]
    assert [line.split()[0] for line in lines[2:]] == [
        "part", "_transition", "symmetric_key", "settle", "sum", "explore", "cold", "misses"]
    assert all(float(line.split()[1]) > 0 for line in lines[3:-1])
    misses = re.fullmatch(r"misses +(\d+) learns (\S+) us, (\d+) settle misses (\S+) us",
                          lines[-1])
    assert misses and all(float(group) > 0 for group in misses.groups()), lines[-1]
