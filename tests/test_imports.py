"""Every name a schedcheck module imports is read in it, so deleting a name's
last caller deletes its import too. `__init__.py` only re-exports. And a
run loads only what its mode uses: the process pool is for a batch of two
or more plans (a sweep file of several lines) alone."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "schedcheck"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_loaded(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - loaded) == []


# Runs explore, walk, a replay of the explore's report, a matrix and a
# one-plan sweep (alone and with the matrix) through cli.main in one fresh
# interpreter, then prints the pool modules that got loaded. Then it runs a
# two-plan sweep and prints whether that loaded the pool.
_RUN_EACH_MODE = """
import contextlib, io, sys
from schedcheck.cli import main

report = io.StringIO()
with contextlib.redirect_stdout(report):
    assert main(["--tasks", "H", "--workers", "1", "--max-preemptions", "0",
                 "--fix-wait", "off", "--out", "json"]) == 1
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(report.getvalue())
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    fh.write("# one plan\\nH\\n")
sweep = ["--sweep", sys.argv[2], "--workers", "1", "--max-preemptions", "0"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["--mode", "walk", "--seed", "1", "--max-steps", "200"]) in (0, 3)
    assert main(["--mode", "replay", "--trace-in", sys.argv[1]]) == 1
    assert main(["--matrix", "--tasks", "H", "--workers", "1", "--max-preemptions", "0"]) == 1
    assert main(sweep) == 0
    assert main(sweep + ["--matrix"]) == 1
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "multiprocessing" or m.startswith("concurrent.futures")))
with open(sys.argv[2], "a", encoding="utf-8") as fh:
    fh.write("L\\n")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sweep) == 0
print("concurrent.futures.process" in sys.modules)
"""


def test_only_sweep_loads_the_process_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_EACH_MODE, str(tmp_path / "report.json"),
         str(tmp_path / "plans.txt")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue\n"
