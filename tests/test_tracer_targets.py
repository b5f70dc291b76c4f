"""The benchmark's span tracer (`perfbench/tracer.py`) wraps schedcheck
functions by name. A renamed or deleted target would stop the benchmark's
traced runs, so every target must still bind, and uninstalling must leave
no wrapper behind."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import schedcheck.cli  # noqa: F401  (the tracer wraps what is imported)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_binds_and_uninstalls():
    tracer = load_tracer()
    with tracer.Tracer().installed():
        bound = set(tracer.installed_spans())
        for _, module, path, _ in tracer.TARGETS:
            assert f"{module}.{path}" in bound, path
    assert tracer.installed_spans() == []
