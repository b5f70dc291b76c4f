"""Regenerate perfbench/expected.json, the fault-matrix answers.

Usage, from the root of a checkout:  python3 perfbench/make_expected.py

Explores every fix/fault combination of the fault-matrix workload to
completion and stores, per combination, the exit code and the set of (verdict, monitor
current state, monitor symbol) triples. The benchmark checks each
combination against these answers and against the hand-written races in
perfbench/races.json, so regenerated answers that lose a documented race
still fail it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from schedcheck import cli  # noqa: E402

import cases as workloads  # noqa: E402


def main() -> int:
    answers = {}
    for combo in workloads.COMBOS["full"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(workloads.combo_argv(*combo)))
        doc = json.loads(buf.getvalue())
        if doc["incomplete"]:
            raise SystemExit(f"{workloads.combo_id(*combo)}: search incomplete")
        answers[workloads.combo_id(*combo)] = {
            "exit": code,
            "verdicts": sorted(map(list, workloads.verdict_triples(doc)), key=str),
        }
    lines = [f" {json.dumps(cid)}: {json.dumps(answers[cid])}" for cid in sorted(answers)]
    with open(workloads.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
