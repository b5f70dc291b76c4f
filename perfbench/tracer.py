"""Outside-in span tracer for schedcheck's four layers.

While installed, every target below is replaced, wherever a schedcheck module
or class binds it, by a wrapper that records a span around the call. Spans
are aggregated in memory per case and span name as (calls, self seconds,
total seconds, observed total); self time is a span's time minus the time of
its child spans. Nothing is written until the run ends, and uninstalling
restores every original attribute.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

MARK = "__perfbench_span__"

MODEL_OPS = ("spawn_next", "timer_fire", "get_next_task", "poll_step",
             "preempt_decide", "send_ipi", "handle_ipi_step")


def _violations(result) -> int:
    return result[0] is not None


# (span name, module, attribute path, observe): `observe` maps a call's
# result to a number that is summed per span, or is None.
TARGETS = (
    ("model.clone", "schedcheck.model", "KernelState.clone", None),
    ("model.snapshot", "schedcheck.model", "snapshot", len),
    ("model.initial_state", "schedcheck.model", "initial_state", None),
    *((f"model.op.{op}", "schedcheck.model", f"KernelState.{op}", None) for op in MODEL_OPS),
    ("monitor.fire", "schedcheck.monitor", "MonitorRegistry.fire", _violations),
    ("explorer.enabled", "schedcheck.explorer", "enabled", None),
    ("explorer.check_invariants", "schedcheck.explorer", "check_invariants", None),
    ("explorer.explore", "schedcheck.explorer", "explore", None),
    ("explorer.random_walk", "schedcheck.explorer", "random_walk", None),
    ("explorer.replay", "schedcheck.explorer", "replay", None),
    ("cli.main", "schedcheck.cli", "main", None),
    ("cli.report_to_doc", "schedcheck.cli", "report_to_doc", None),
    ("cli.emit_json", "schedcheck.cli", "emit_json", len),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


def _schedcheck_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "schedcheck" or name.startswith("schedcheck."))]


def installed_spans() -> list[str]:
    """`owner.attr` of every span wrapper currently bound in schedcheck."""
    found = []
    for module in _schedcheck_modules():
        for key, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{key}.{k}"
                          for k, v in vars(value).items() if hasattr(v, MARK)]
    return found


class Tracer:
    """Aggregated spans of one traced run, keyed by case id and span name."""

    def __init__(self) -> None:
        self.cases: dict[str, dict[str, list]] = {}
        self._current: dict[str, list] = {}
        self._stack: list[float] = []

    def begin_case(self, case_id: str) -> None:
        self._current = self.cases.setdefault(case_id, {})

    def _wrap(self, name: str, fn, observe):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = tracer._current.get(name)
                if rec is None:
                    rec = tracer._current[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed - children
                rec[2] += elapsed
            if observe is not None:
                rec[3] += observe(result)
            return result

        setattr(span, MARK, name)
        return span

    @contextmanager
    def installed(self):
        """Install every span wrapper; restore all originals on exit."""
        restore = []
        try:
            for name, module_name, path, observe in TARGETS:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = vars(owner)[attr]
                    bindings = [(owner, attr)]
                else:
                    original = getattr(module, attr)
                    # `from .model import snapshot` and the like bind the same
                    # function in other modules; wrap every binding.
                    bindings = [(m, k) for m in _schedcheck_modules()
                                for k, v in vars(m).items() if v is original]
                wrapper = self._wrap(name, original, observe)
                for owner, key in bindings:
                    restore.append((owner, key, original))
                    setattr(owner, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)
