"""`_settle` reads only the cells of `Layout.settle_offsets`.

`explore` keeps one `_settle` answer per value of those cells, keyed by the
state's number masked by `Layout.settle_mask`, so any other
cell that the invariants, the enabled steps or the deadlock test read would
make two states share an answer that differs. Here every cell outside the
projection is scrambled in a copy of each reachable state, and the copy
must settle exactly as the original does. The mask must keep exactly the
bytes of the settle cells, for one- and two-byte cells."""

from __future__ import annotations

import itertools
import random
from array import array
from sys import byteorder

import pytest

from schedcheck.explorer import _apply, _settle
from schedcheck.model import FAULTS, KernelConfig, TaskKind, initial_state, layout_for, snapshot

H = TaskKind.HEAVY
L = TaskKind.LIGHT


def _combos() -> list[KernelConfig]:
    """All 32 fix/fault combinations on the default H,L,L/2."""
    out = []
    for fix_wait, fix_preempt in itertools.product((True, False), repeat=2):
        for flags in itertools.product((False, True), repeat=len(FAULTS)):
            out.append(KernelConfig(
                fix_wait_need_sched=fix_wait, fix_preempt_need_sched=fix_preempt,
                faults=frozenset(f for f, on in zip(sorted(FAULTS), flags) if on),
            ))
    return out


CONFIGS = _combos() + [
    KernelConfig(task_plan=(H, H)),
    KernelConfig(worker_count=3),
    # a heavy script of 142 actions: two-byte cells
    KernelConfig(task_plan=(H, L), worker_count=1, max_waits_per_task=70),
]


def _reachable(config: KernelConfig):
    """Every state reachable from boot (exact key), with its settle answer."""
    init = initial_state(config)
    seen = {snapshot(init)}
    stack = [init]
    while stack:
        state = stack.pop()
        settled = _settle(state)
        yield state, settled
        verdict, _, options = settled
        if verdict is not None:
            continue
        for choice in options:
            succ = _apply(state, choice)
            if (key := snapshot(succ)) not in seen:
                seen.add(key)
                stack.append(succ)


def config_id(c: KernelConfig) -> str:
    return (f"{','.join(k.value for k in c.task_plan)}/{c.worker_count}"
            f"-w{int(c.fix_wait_need_sched)}p{int(c.fix_preempt_need_sched)}"
            f"-{''.join(str(int(f in c.faults)) for f in sorted(FAULTS))}")


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_cells_outside_the_projection_do_not_move_the_settle(config):
    layout = layout_for(config)
    unread = sorted(set(range(len(layout.boot))) - set(layout.settle_offsets))
    rng = random.Random(7)
    count = 0
    for state, settled in _reachable(config):
        clone = state.clone()
        clone.violation = state.violation
        for at, value in zip(unread, rng.choices(range(-1, 5), k=len(unread))):
            clone.buf[at] = value
        assert _settle(clone) == settled, (list(state.buf), list(clone.buf))
        count += 1
    assert count > 1


@pytest.mark.parametrize("config, typecode", [
    (KernelConfig(), "b"), (KernelConfig(max_waits_per_task=70), "h"),
], ids=["b", "h"])
def test_the_settle_mask_keeps_the_bytes_of_the_settle_cells(config, typecode):
    layout = layout_for(config)
    assert layout.boot.typecode == typecode
    top = 2 ** (8 * layout.boot.itemsize - 1)
    rng = random.Random(3)
    for _ in range(20):
        buf = array(typecode, rng.choices(range(-top, top), k=len(layout.boot)))
        kept = array(typecode, [0]) * len(buf)
        for at in layout.settle_offsets:
            kept[at] = buf[at]
        number = int.from_bytes(bytes(buf), byteorder)
        assert number & layout.settle_mask == int.from_bytes(bytes(kept), byteorder)
