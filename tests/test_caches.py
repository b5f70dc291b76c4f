"""The process-wide caches of schedcheck are few and named. What a plan
compiles to hangs off its one Layout (`model.layout_for`), and `explore`'s
memos off `explorer._plan_memos`, so a new `functools.cache` (or
`lru_cache`) decorator must come with a change to the list below."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schedcheck"
CACHED = {"build_parser", "default_table", "_plan_memos"}


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_only_the_listed_functions_are_cached():
    cached = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    _decorator_name(d) in ("cache", "lru_cache") for d in node.decorator_list):
                cached.add(node.name)
    assert cached == CACHED
