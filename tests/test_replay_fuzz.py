"""Fuzz test for replay documents: a mutated report is either replayed or
rejected with exit 2. No exception escapes `main`, and exit 1 comes only
from a reproduced violation."""

from __future__ import annotations

import contextlib
import io
import json
from functools import cache

from hypothesis import given, settings, strategies as st

from schedcheck.cli import EXIT_VIOLATION, main

# Replacement values of every JSON type. Integers stay at 3 or below, so a
# mutated config stays small enough to replay at once.
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 3),
    st.just(0.5),
    st.sampled_from(["", "H", "H,L", "x", "Worker", "Deadlock", "skip-resume-state"]),
    st.just([]),
    st.just({}),
)


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@cache
def report() -> str:
    """A small real report: two lost-wakeup deadlocks on one worker, with a
    fault named so that there is a fault entry to mutate."""
    code, out = run(["--fix-wait", "off", "--tasks", "H", "--workers", "1",
                     "--max-preemptions", "0", "--fault", "skip-running-check",
                     "--max-violations", "2", "--out", "json"])
    assert code == EXIT_VIOLATION
    return out


def positions(node: dict | list, prefix: tuple = ()):
    """Every position inside a JSON document, as a key path from the root."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from positions(child, prefix + (key,))


def mutate(doc: dict, data: st.DataObject) -> None:
    """Drop, swap or wrap the value at one drawn position inside `doc`."""
    where = list(positions(doc))
    if not where:
        return
    *path, key = data.draw(st.sampled_from(where))
    node = doc
    for step in path:
        node = node[step]
    op = data.draw(st.sampled_from(["drop", "swap", "list", "object"]))
    if op == "drop":
        del node[key]
    elif op == "swap":
        node[key] = data.draw(VALUES)
    elif op == "list":
        node[key] = [node[key]]
    else:
        node[key] = {"value": node[key]}


@settings(max_examples=200, deadline=None)
@given(mutations=st.integers(1, 3), data=st.data())
def test_mutated_report_replays_or_is_rejected(tmp_path_factory, mutations, data):
    doc = json.loads(report())
    for _ in range(mutations):
        mutate(doc, data)
    path = tmp_path_factory.getbasetemp() / "fuzzed-report.json"
    path.write_text(json.dumps(doc))
    code, out = run(["--mode", "replay", "--trace-in", str(path), "--out", "json"])
    assert code in (0, 1, 2)
    if code == EXIT_VIOLATION:
        replays = json.loads(out)["replays"]
        assert all(r["match"] for r in replays)
        assert any(r["reproduced"] is not None for r in replays)
