"""Batch front-end: parse a configuration, run explore/walk/replay, and emit
human-readable traces or a machine-readable JSON report; or explore a batch,
one summary line per search. A batch's plans are the lines of a sweep file,
or the command line's plan; each plan is searched as configured, or under
every fix/fault combination (the fault matrix). Two or more plans run in a
process pool, one task per plan; a single plan runs in this process.

Exit codes: 0 no violation and complete; 1 violation(s) found; 2 usage or
configuration error; 3 bounded-incomplete without a violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
from functools import cache

from . import __version__
from .explorer import (
    PROCESS_KINDS,
    ExplorationReport,
    Limits,
    ReplayError,
    ScheduleStep,
    Trace,
    explore,
    random_walk,
    release_plan_memos,
    replay,
)
from .model import FAULTS, ConfigurationError, KernelConfig, TaskKind

SCHEMA_VERSION = 2
# Replay reads the schedules of reports of these schemas; schema 2 keeps one
# shortest trace per violation class.
READABLE_SCHEMAS = (1, 2)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


def parse_task_plan(text: str) -> tuple[TaskKind, ...]:
    plan = []
    for part in text.split(","):
        part = part.strip().upper()
        if part == "H":
            plan.append(TaskKind.HEAVY)
        elif part == "L":
            plan.append(TaskKind.LIGHT)
        else:
            raise ConfigurationError(f"bad task kind {part!r} (expected H or L)")
    return tuple(plan)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `main` runs it once per call, and
    parsing leaves the parser and its defaults unchanged."""
    p = argparse.ArgumentParser(
        prog="schedcheck",
        description="Check a preemptive async-task scheduler model by "
        "exhaustive interleaving exploration or seeded random walks.",
    )
    p.add_argument("--workers", type=int, default=None, help="worker core count (default 2)")
    p.add_argument("--tasks", default=None, help="task plan, e.g. H,L,L (default)")
    p.add_argument("--fix-wait", choices=["on", "off"], default=None,
                   help="need_sched fix for the wake/wait race (default on)")
    p.add_argument("--fix-preempt", choices=["on", "off"], default=None,
                   help="need_sched-before-IPI fix for preemption (default on)")
    p.add_argument("--fault", action="append", default=[], metavar="NAME",
                   choices=sorted(FAULTS),
                   help="enable a fault toggle (repeatable): " + ", ".join(sorted(FAULTS)))
    p.add_argument("--max-waits", type=int, default=None, help="waits per heavy task (default 1)")
    p.add_argument("--max-preemptions", type=int, default=None,
                   help="preemptions per heavy task (default 1)")
    p.add_argument("--mode", choices=["explore", "walk", "replay"], default="explore")
    p.add_argument("--seed", type=int, default=None, help="random-walk seed (walk mode)")
    p.add_argument("--max-steps", type=int, default=100_000, help="walk step budget")
    p.add_argument("--max-states", type=int, default=None, help="explore state budget")
    p.add_argument("--max-depth", type=int, default=None,
                   help="explore depth budget: search exactly the states within N steps; "
                   "INCOMPLETE only when a state lies beyond them")
    p.add_argument("--max-violations", type=int, default=16,
                   help="stop once this many violation classes are found "
                   "(explore keeps one shortest trace per class)")
    p.add_argument("--trace-in", default=None, metavar="FILE",
                   help="JSON report whose violations to replay (replay mode)")
    p.add_argument("--out", choices=["text", "json"], default="text")
    p.add_argument("--quiet", action="store_true", help="suppress per-step trace lines")
    p.add_argument("--sweep", default=None, metavar="FILE",
                   help="file with one task plan per line; explore each, in a pool if two or more")
    p.add_argument("--matrix", action="store_true",
                   help="explore each plan under every fix/fault combination")
    return p


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.matrix:
        # the matrix sets the fixes and faults of each of its searches
        for flag, given in (("--fix-wait", args.fix_wait is not None),
                            ("--fix-preempt", args.fix_preempt is not None),
                            ("--fault", bool(args.fault))):
            if given:
                raise usage_error(f"--matrix cannot be combined with {flag}")
    batch = "--sweep" if args.sweep is not None else "--matrix" if args.matrix else None
    if batch is not None:
        # a batch explores several configs and prints one summary line each
        if args.mode != "explore":
            raise usage_error(f"{batch} cannot be combined with --mode {args.mode}")
        if args.out != "text":
            raise usage_error(f"{batch} cannot be combined with --out {args.out}")
    if args.sweep is not None and args.tasks is not None:  # the file names the plans
        raise usage_error("--sweep cannot be combined with --tasks")
    if args.mode == "walk" and args.seed is None:
        parser.error("--mode walk requires --seed")
    if args.mode == "replay" and args.trace_in is None:
        parser.error("--mode replay requires --trace-in")
    return args


def config_from_args(args: argparse.Namespace, base: dict | None = None) -> KernelConfig:
    """Build the kernel config; explicit flags override `base` (an embedded
    config echo from a trace file), which overrides the defaults."""
    base = dict(base or {})

    def pick(flag_value, key, default):
        return flag_value if flag_value is not None else base.get(key, default)

    fix_wait = args.fix_wait == "on" if args.fix_wait is not None else bool(base.get("fix_wait", True))
    fix_preempt = (
        args.fix_preempt == "on" if args.fix_preempt is not None else bool(base.get("fix_preempt", True))
    )
    plan_text = pick(args.tasks, "tasks", "H,L,L")
    return KernelConfig(
        worker_count=pick(args.workers, "workers", 2),
        task_plan=parse_task_plan(plan_text),
        fix_wait_need_sched=fix_wait,
        fix_preempt_need_sched=fix_preempt,
        faults=frozenset(args.fault or base.get("faults", [])),
        max_waits_per_task=pick(args.max_waits, "max_waits", 1),
        max_preemptions_per_task=pick(args.max_preemptions, "max_preemptions", 1),
    )


def usage_error(message: str) -> SystemExit:
    print(f"schedcheck: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


# -- document (de)serialization --------------------------------------


def config_to_dict(config: KernelConfig) -> dict:
    return {
        "workers": config.worker_count,
        "tasks": ",".join(k.value for k in config.task_plan),
        "fix_wait": config.fix_wait_need_sched,
        "fix_preempt": config.fix_preempt_need_sched,
        "faults": sorted(config.faults),
        "max_waits": config.max_waits_per_task,
        "max_preemptions": config.max_preemptions_per_task,
    }


_CONFIG_FIELDS = {
    "workers": int,
    "tasks": str,
    "fix_wait": bool,
    "fix_preempt": bool,
    "faults": list,
    "max_waits": int,
    "max_preemptions": int,
}


def _is_a(value: object, kind: type) -> bool:
    # bool is an int subclass, but a flag is no count
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def check_config_dict(doc: object) -> dict:
    """Return `doc` if it is a well-typed (possibly partial) config echo;
    raise ConfigurationError naming the first bad or unknown field otherwise.
    Both readable schemas echo the same seven fields."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config must be a JSON object, not {doc!r}")
    for key in doc:
        if key not in _CONFIG_FIELDS:
            raise ConfigurationError(f"unknown config field {key!r}")
    for key, kind in _CONFIG_FIELDS.items():
        if key in doc and not _is_a(doc[key], kind):
            raise ConfigurationError(
                f"config field {key!r} must be {kind.__name__}, not {doc[key]!r}"
            )
    for fault in doc.get("faults", []):
        if not isinstance(fault, str) or fault not in FAULTS:
            raise ConfigurationError(f"unknown fault {fault!r} in config")
    return doc


def step_to_dict(step: ScheduleStep) -> dict:
    process, core, variant = step
    return {"process": process, "core": core, "variant": variant}


def step_from_dict(doc: object) -> ScheduleStep:
    """Parse one recorded step; raise ConfigurationError if it is malformed."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"step must be a JSON object, not {doc!r}")
    process, core, variant = doc.get("process"), doc.get("core"), doc.get("variant")
    if process not in PROCESS_KINDS:
        raise ConfigurationError(f"unknown process kind {process!r} in step {doc}")
    if core is not None and not _is_a(core, int):
        raise ConfigurationError(f"step core must be int or null, not {core!r}")
    if not _is_a(variant, int):
        raise ConfigurationError(f"step variant must be int, not {variant!r}")
    return process, core, variant


def violations_from_doc(
    doc: object,
) -> tuple[dict | None, list[tuple[str, tuple[ScheduleStep, ...]]]]:
    """Validate a JSON report for replay: return its embedded config (or
    None) and each violation's (verdict, steps). Raise ConfigurationError
    naming the first malformed part."""
    if not isinstance(doc, dict):
        raise ConfigurationError("trace file must hold a JSON object (a schedcheck report)")
    schema = doc.get("schema", SCHEMA_VERSION)
    if not (_is_a(schema, int) and schema in READABLE_SCHEMAS):
        raise ConfigurationError(
            f"trace file has schema {doc['schema']!r}, "
            f"expected {' or '.join(map(str, READABLE_SCHEMAS))}"
        )
    config = doc.get("config")
    if config is not None:
        check_config_dict(config)
    violations = doc.get("violations", [])
    if not isinstance(violations, list):
        raise ConfigurationError("trace file field 'violations' must be a list")
    out = []
    for i, v in enumerate(violations):
        if not isinstance(v, dict) or not isinstance(v.get("verdict"), str):
            raise ConfigurationError(f"violation #{i} needs a string 'verdict'")
        if not isinstance(v.get("steps"), list):
            raise ConfigurationError(f"violation #{i} needs a list of 'steps'")
        out.append((v["verdict"], tuple(map(step_from_dict, v["steps"]))))
    return config, out


def trace_to_dict(trace: Trace, violating_states: int) -> dict:
    err = trace.monitor_error
    return {
        "verdict": trace.verdict,
        "violating_states": violating_states,
        "steps": [step_to_dict(s) for s in trace.steps],
        "lines": trace.lines(),
        "monitor_error": None if err is None else {
            "task": err.task,
            "current_state": str(err.current_state),
            "symbol": str(err.symbol),
        },
        "final_task_states": {str(tid): st for tid, st in trace.final_task_states},
        "final_queue": list(trace.final_queue),
        "detail": trace.detail,
    }


def report_to_doc(report: ExplorationReport, mode: str, seed: int | None = None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "schedcheck", "version": __version__},
        "mode": mode,
        "seed": seed,
        "config": config_to_dict(report.config),
        "counters": {
            "states_visited": report.states_visited,
            "transitions_taken": report.transitions_taken,
            "max_depth": report.max_depth,
            "quiescent_ok": report.quiescent_ok,
        },
        "incomplete": report.incomplete,
        "incomplete_reason": report.incomplete_reason,
        "all_paths_terminal_ok": report.all_paths_terminal_ok,
        "violations": [trace_to_dict(t, n)
                       for t, n in zip(report.violations, report.violating_states)],
    }


def emit_json(doc: dict) -> str:
    """The report document as JSON: sorted keys, two-space indent, one
    trailing newline, so that equal reports give equal bytes."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def exit_code_for(doc: dict) -> int:
    """Exit code as a pure function of the report document."""
    if doc["violations"]:
        return EXIT_VIOLATION
    if doc["incomplete"]:
        return EXIT_INCOMPLETE
    return EXIT_OK


# -- rendering --------------------------------------------------------


def toggles_text(cfg: dict) -> str:
    """The fix/fault toggles of a config echo, as a header or a matrix line shows them."""
    return (f"fix_wait={'on' if cfg['fix_wait'] else 'off'} "
            f"fix_preempt={'on' if cfg['fix_preempt'] else 'off'} "
            f"faults={','.join(cfg['faults']) or 'none'}")


def render_text(doc: dict, quiet: bool) -> str:
    lines: list[str] = []
    cfg = doc["config"]
    lines.append(
        f"schedcheck {doc['tool']['version']} mode={doc['mode']} "
        f"workers={cfg['workers']} tasks={cfg['tasks']} {toggles_text(cfg)} "
        f"max_waits={cfg['max_waits']} max_preemptions={cfg['max_preemptions']}"
    )
    for i, v in enumerate(doc["violations"]):
        lines.append(f"violation {i + 1}: {v['verdict']} "
                     f"(violating states: {v['violating_states']})")
        if not quiet:
            lines.extend("  " + ln for ln in v["lines"])
        if v["monitor_error"] is not None:
            err = v["monitor_error"]
            lines.append(f"  error: invalid transition for task {err['task']}")
            lines.append(f"    current state: {err['current_state']}")
            lines.append(f"    symbol: {err['symbol']}")
        if v["detail"]:
            lines.append(f"  detail: {v['detail']}")
        states = ", ".join(f"task {t}={s}" for t, s in sorted(v["final_task_states"].items()))
        lines.append(f"  final states: {states}; queue={v['final_queue']}")
    c = doc["counters"]
    status = f"INCOMPLETE ({doc['incomplete_reason']})" if doc["incomplete"] else "complete"
    lines.append(
        f"states={c['states_visited']} transitions={c['transitions_taken']} "
        f"max_depth={c['max_depth']} quiescent_ok={c['quiescent_ok']} "
        f"violations={len(doc['violations'])} {status}"
    )
    verdict = "ok" if not doc["violations"] else "violations found"
    if doc["incomplete"] and not doc["violations"]:
        verdict = "bounded-incomplete"
    lines.append(f"result: {verdict}")
    return "\n".join(lines) + "\n"


# -- modes ------------------------------------------------------------


def _limits(args: argparse.Namespace) -> Limits:
    return Limits(max_states=args.max_states, max_depth=args.max_depth,
                  max_violations=args.max_violations)


def _run_explore(config: KernelConfig, limits: Limits) -> dict:
    return report_to_doc(explore(config, limits), "explore")


def _run_replay(args: argparse.Namespace) -> tuple[dict, int]:
    """Replay each violation of the `--trace-in` report under its embedded
    config (flags override it), and give the replay document and its exit
    code: 2 when any replay does not match its recorded verdict, or raises
    ReplayError; otherwise 1 when any violation reproduced, else 0."""
    try:
        with open(args.trace_in, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise usage_error(f"cannot read trace file: {exc}")
    base, violations = violations_from_doc(doc)
    config = config_from_args(args, base=base)
    results = []
    worst = EXIT_OK
    for verdict, steps in violations:
        try:
            reproduced, error = replay(config, steps).verdict, None
        except ReplayError as exc:
            reproduced, error = None, str(exc)
        results.append({"expected": verdict, "reproduced": reproduced,
                        "match": reproduced == verdict, "error": error})
        if reproduced is not None:
            worst = max(worst, EXIT_VIOLATION)
        if reproduced != verdict:
            worst = EXIT_USAGE
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "schedcheck", "version": __version__},
        "mode": "replay",
        "config": config_to_dict(config),
        "replays": results,
    }, worst


def _render_replay_text(doc: dict) -> str:
    lines = [f"schedcheck {doc['tool']['version']} mode=replay"]
    for i, r in enumerate(doc["replays"]):
        status = "MATCH" if r["match"] else "MISMATCH"
        lines.append(
            f"replay {i + 1}: expected={r['expected']} "
            f"reproduced={r['reproduced']} {status}"
            + (f" ({r['error']})" if r["error"] else "")
        )
    if not doc["replays"]:
        lines.append("nothing to replay")
    return "\n".join(lines) + "\n"


def matrix_configs(config: KernelConfig) -> list[KernelConfig]:
    """`config` under each of the 32 fix/fault combinations: both fixes
    on, the preemption fix off, the wait fix off, both off; under each,
    the fault sets by size, then by name."""
    faults = sorted(FAULTS)
    return [
        dataclasses.replace(config, fix_wait_need_sched=fix_wait,
                            fix_preempt_need_sched=fix_preempt, faults=frozenset(chosen))
        for fix_wait in (True, False)
        for fix_preempt in (True, False)
        for size in range(len(faults) + 1)
        for chosen in itertools.combinations(faults, size)
    ]


def _explore_plan(configs: list[KernelConfig], limits: Limits) -> list[dict]:
    """Explore one plan's configs in order over the plan's shared step memos
    (the toggles are state cells), then release the memos: no other plan of
    a batch can use them, and a pool worker would keep them for its life."""
    try:
        return [_run_explore(config, limits) for config in configs]
    finally:
        release_plan_memos()


def _read_sweep(path: str) -> list[str]:
    """The task plans of a sweep file, one a line, skipping blanks and `#` comments."""
    plans = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for n, plan in enumerate(map(str.strip, fh), 1):
                if plan and not plan.startswith("#"):
                    parse_task_plan(plan)
                    plans.append(plan)
    except (OSError, UnicodeDecodeError) as exc:
        raise usage_error(f"cannot read sweep file: {exc}")
    except ConfigurationError as exc:
        raise usage_error(f"sweep file line {n}: {exc}")
    if not plans:
        raise usage_error("sweep file lists no task plans")
    return plans


def _run_batch(args: argparse.Namespace) -> int:
    """Explore each plan (the sweep file's, or else the command line's), or
    under --matrix its 32 combinations; print one summary line per search,
    in input order, and return the worst exit code."""
    plans = [None] if args.sweep is None else _read_sweep(args.sweep)
    configs = [config_from_args(argparse.Namespace(**{**vars(args), "tasks": plan or args.tasks}))
               for plan in plans]
    searches = [matrix_configs(config) if args.matrix else [config] for config in configs]
    pool, run = contextlib.nullcontext(), map
    if len(plans) > 1:  # one task per plan; importing the pool loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor()
        run = pool.map
    worst = EXIT_OK
    with pool:
        for plan, docs in zip(plans, run(_explore_plan, searches, itertools.repeat(_limits(args)))):
            for doc in docs:
                code = exit_code_for(doc)
                worst = max(worst, code)
                head = [] if plan is None else [f"plan {plan}"]
                if args.matrix:
                    head.append(toggles_text(doc["config"]))
                verdicts = sorted({v["verdict"] for v in doc["violations"]})
                listed = f" ({', '.join(verdicts)})" if args.matrix and verdicts else ""
                print(f"{' '.join(head)}: states={doc['counters']['states_visited']} "
                      f"violations={len(doc['violations'])}{listed} "
                      f"{'INCOMPLETE' if doc['incomplete'] else 'complete'} exit={code}")
    return worst


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        if args.sweep is not None or args.matrix:
            return _run_batch(args)
        if args.mode == "replay":
            doc, code = _run_replay(args)
        else:
            config = config_from_args(args)
            if args.mode == "explore":
                doc = _run_explore(config, _limits(args))
            else:
                doc = report_to_doc(random_walk(config, args.seed, args.max_steps),
                                    "walk", seed=args.seed)
            code = exit_code_for(doc)
        if args.out == "json":
            sys.stdout.write(emit_json(doc))
        elif args.mode == "replay":
            sys.stdout.write(_render_replay_text(doc))
        else:
            sys.stdout.write(render_text(doc, args.quiet))
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ValueError, OSError) as exc:
        # covers ConfigurationError and bad limit values too
        print(f"schedcheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
