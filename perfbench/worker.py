"""One pass of one workload, in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, size, and whether to trace, to calibrate
the timings to the machine's speed (calibrate.py), or only to set up. The
worker imports schedcheck (from PYTHONPATH), builds its cases and notes the
monotonic clock; then it runs every case through `schedcheck.cli.main`,
checks each operation against the expected answers, and prints one JSON line
with its timings, counters and spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import schedcheck
from schedcheck import cli

import calibrate
import cases as workloads

# Calibration chunks timed after set-up, about 50 ms in all.
SETUP_CHUNKS = 40


def clock() -> float:
    """A clock shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_main(argv, out) -> int:
    with contextlib.redirect_stdout(out):
        return cli.main(list(argv))


def run_pass(cases, workdir: Path, tracer=None) -> dict:
    """Run every case once; count operations and failures."""
    attempted = failed = 0
    failures: list[str] = []
    counters: dict[str, dict] = {}

    def outcome(what: str, problems: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            failures.append(f"{what}: {'; '.join(problems)}")

    start = clock()
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.begin_case(case.id)
        try:
            if case.replay:
                report = workdir / f"report-{index}.json"
                with open(report, "w", encoding="utf-8") as fh:
                    code = run_main(case.argv, fh)
                with open(report, encoding="utf-8") as fh:
                    doc = json.load(fh)
            else:
                buf = io.StringIO()
                code = run_main(case.argv, buf)
                doc = json.loads(buf.getvalue())
        except Exception as exc:  # the pass goes on; the case counts as failed
            outcome(case.id, [f"raised {exc!r}"])
            continue
        outcome(case.id, workloads.check_case(case, code, doc))
        counters[case.id] = dict(doc["counters"], violations=len(doc["violations"]))
        if case.replay:
            try:
                buf = io.StringIO()
                rcode = run_main(("--mode", "replay", "--trace-in", str(report),
                                  "--out", "json"), buf)
                problems = workloads.check_replay(doc, rcode, json.loads(buf.getvalue()))
            except Exception as exc:  # as above
                problems = [f"raised {exc!r}"]
            outcome(f"replay {case.id}", problems)
    end = clock()
    return {"wall_s": end - start, "attempted": attempted,
            "failed": failed, "failures": failures[:5], "counters": counters}


def main() -> int:
    spec = json.loads(sys.argv[1])
    cases = workloads.build_cases(spec["workload"], spec["seed"], spec["size"])
    ready = clock()
    root = Path(__file__).resolve().parent.parent
    if Path(schedcheck.__file__).resolve().parent != root / "src" / "schedcheck":
        print(f"worker: imported schedcheck from {schedcheck.__file__}, "
              f"not from {root / 'src'}", file=sys.stderr)
        return 2
    if spec["setup_only"]:
        scale = (calibrate.speed_scale(calibrate.sample(SETUP_CHUNKS))
                 if spec["calibrate"] else 1.0)
        print(json.dumps({"ready": ready, "speed_scale": scale}))
        return 0
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    try:
        if tracer is not None:
            with tracer.installed():
                result = run_pass(cases, workdir, tracer)
            result["spans"] = tracer.cases
        elif spec["calibrate"]:
            sampler = calibrate.Sampler()
            with sampler.sampling():
                result = run_pass(cases, workdir)
            result["raw_wall_s"] = result["wall_s"]
            result["wall_s"] = sampler.calibrated()
        else:
            result = run_pass(cases, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
