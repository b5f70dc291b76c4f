"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from schedcheck import explorer


@pytest.fixture
def cold_memos(monkeypatch):
    """Every `explore` in the test starts from empty step memos and a new
    scratch state, as a search of a new plan does, and the memos that the
    configs of each plan share (`explorer._plan_memos`, keyed by the plan's
    one Layout) stay as they were. For tests that patch an operation, whose runs a
    warm memo would skip and whose patched leaves must not outlive the
    test, and for tests that count what a search learns."""
    monkeypatch.setattr(explorer, "_plan_memos", explorer._plan_memos.__wrapped__)
