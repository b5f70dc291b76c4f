"""schedcheck benchmark: time to verdict, peak memory and set-up time per
workload, and per-layer spans from a separate traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explore|walk \
        --seed N --seconds S --trace 0|1

Every pass of the workload runs in a fresh worker process (perfbench/worker.py)
that imports schedcheck from ./src. Passes repeat while the next one is
expected to end within S seconds; there is always at least one. With
--trace 0 the run times set-up in separate processes between passes, and
reports the median pass's wall time and peak RSS and the median set-up time;
both times are calibrated to the machine's speed (calibrate.py), measured
while they run. With --trace 1 each pass runs untraced
and then traced, and the run reports per-layer metrics, the tracing overhead,
and fails the traced pass's operations whose counters differ from the
untraced pass's.

The human-readable report goes to stdout, the last line is one JSON object
with the metrics, and the run record (git SHA, Python version, nproc, seed,
per-case counters, spans) is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases as workloads
from tracer import MODEL_OPS, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 15
SETUP_BATCH = 5
# Every process of a run ends within this many seconds of its start.
TIME_LIMIT_S = 170

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

CALLS_AND_SELF = ("model.clone", "model.snapshot", "model.initial_state",
                  *(f"model.op.{op}" for op in MODEL_OPS), "monitor.fire",
                  "explorer.enabled", "explorer.check_invariants", "explorer.replay",
                  "cli.emit_json")
SELF_ONLY = ("explorer.explore", "explorer.random_walk", "cli.main", "cli.report_to_doc")

PER_LAYER = {
    **{f"{name}.{field}": unit for name in CALLS_AND_SELF
       for field, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{name}.self_s": "s" for name in SELF_ONLY},
    "model.snapshot.key_chars_mean": "chars",
    "monitor.violations": "count",
    "explorer.states_visited": "count",
    "explorer.transitions_taken": "count",
    "explorer.new_state_ratio": "ratio",
    "explorer.violations": "count",
    "explorer.max_depth": "steps",
    "explorer.states_per_s": "1/s",
    "cli.json_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from .git inside `root`; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Spawns worker processes for one run, all ending by one deadline."""

    def __init__(self, workload: str, seed: int, size: str, calibrate: bool) -> None:
        if not (ROOT / "src" / "schedcheck" / "__init__.py").is_file():
            raise BenchError(f"no schedcheck sources under {ROOT / 'src'}")
        self.base = {"workload": workload, "seed": seed, "size": size,
                     "calibrate": calibrate}
        self.deadline = clock() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def spawn(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        spec = dict(self.base, trace=trace, setup_only=setup_only)
        spawned = clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s limit") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["raw_setup_s"] = result["ready"] - spawned
        result["setup_s"] = result["raw_setup_s"] * result.get("speed_scale", 1.0)
        return result


def span_totals(spans: dict[str, dict[str, list]]) -> dict[str, list]:
    """Per span name, (calls, self s, total s, observed) summed over cases."""
    out = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
    for per_case in spans.values():
        for name, rec in per_case.items():
            out[name] = [a + b for a, b in zip(out[name], rec)]
    return out


def layer_metrics(untraced_wall_s: float, traced: dict) -> dict[str, float]:
    spans = span_totals(traced["spans"])
    m: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = spans[name][0]
        m[f"{name}.self_s"] = spans[name][1]
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = spans[name][1]
    calls, _, _, chars = spans["model.snapshot"]
    m["model.snapshot.key_chars_mean"] = chars / calls if calls else 0.0
    m["monitor.violations"] = spans["monitor.fire"][3]
    counters = traced["counters"].values()
    states = sum(c["states_visited"] for c in counters)
    transitions = sum(c["transitions_taken"] for c in counters)
    m["explorer.states_visited"] = states
    m["explorer.transitions_taken"] = transitions
    m["explorer.new_state_ratio"] = states / transitions if transitions else 0.0
    m["explorer.violations"] = sum(c["violations"] for c in counters)
    m["explorer.max_depth"] = max((c["max_depth"] for c in counters), default=0)
    m["explorer.states_per_s"] = states / untraced_wall_s
    m["cli.json_bytes"] = spans["cli.emit_json"][3]
    m["trace.overhead_frac"] = traced["wall_s"] / untraced_wall_s - 1
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Run the workload and return its run record; record["result"] is the
    result line."""
    runner = Runner(workload, seed, size, calibrate=not trace)
    setup: list[dict] = []

    def time_setup(samples: int) -> None:
        setup.extend(runner.spawn(setup_only=True) for _ in range(samples))

    if not trace:
        runner.spawn(setup_only=True)  # fills the bytecode cache; not timed
    groups = []
    measured = 0.0
    while True:
        if not trace:
            # set-up samples are spread between passes, and take no pass time
            time_setup(min(SETUP_BATCH, SETUP_SAMPLES - len(setup)))
        began = clock()
        group = [runner.spawn()]
        if trace:
            group.append(runner.spawn(trace=True))
        groups.append(group)
        took = clock() - began
        measured += took
        if measured + took > seconds:
            break
    if not trace:
        time_setup(SETUP_SAMPLES - len(setup))

    reference = groups[0][0]["counters"]
    attempted = failed = 0
    failures = []
    for group in groups:
        for p in group:
            attempted += p["attempted"]
            failed += p["failed"]
            failures += p["failures"]
            drift = [c for c in reference
                     if c in p["counters"] and p["counters"][c] != reference[c]]
            failed += len(drift)
            failures += [f"{c}: counters {p['counters'][c]} differ from {reference[c]}"
                         for c in drift]

    if trace:
        # the fastest traced pass, against the fastest untraced one
        traced = min((g[1] for g in groups), key=lambda p: p["wall_s"])
        values = layer_metrics(min(g[0]["wall_s"] for g in groups), traced)
        units = PER_LAYER
    else:
        passes = [g[0] for g in groups]
        values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
                  "setup_s": statistics.median(s["setup_s"] for s in setup)}
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "git_sha": git_sha(ROOT), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "setup": [{k: s[k] for k in ("setup_s", "raw_setup_s")} for s in setup],
        "passes": [{k: p[k] for k in ("wall_s", "raw_wall_s", "peak_rss_mb", "attempted",
                                       "failed") if k in p}
                   | {"traced": "spans" in p} for g in groups for p in g],
        "cases": reference, "failures": failures[:20],
        "spans": traced["spans"] if trace else None,
        "result": result,
    }
    return record


def report(record: dict) -> str:
    """The human-readable lines that precede the result line."""
    result = record["result"]
    counters = record["cases"].values()
    lines = [
        f"perfbench workload={record['workload']} seed={record['seed']} "
        f"trace={record['trace']} passes={len(record['passes'])} git={record['git_sha']} "
        f"python={record['python']} nproc={record['nproc']}",
        f"cases={len(record['cases'])} "
        f"states_visited={sum(c['states_visited'] for c in counters)} "
        f"transitions_taken={sum(c['transitions_taken'] for c in counters)} "
        f"violations={sum(c['violations'] for c in counters)}",
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    lines.append(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
                 f"({result['failed']} of {result['attempted']} operations)")
    lines += [f"FAILED {f}" for f in record["failures"]]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="Run one workload of the schedcheck benchmark.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(report(record))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
