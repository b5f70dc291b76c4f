"""Machine-speed calibration for the end-to-end timings.

On a shared host, other tenants slow the whole machine for seconds or
minutes at a time, by up to 80%, with no stolen time to show for it: the
process keeps the CPU but runs slower. A pass's raw wall time then measures
the host's load as much as the program. So the timed passes of an
end-to-end run are sampled: a timer signal interrupts the pass every
INTERVAL_S seconds, and its handler, in the same thread and between two
bytecodes of the program, times one fixed chunk of pure-Python work
(allocation, attribute access, hashing, string building, much as in a
model checker's state copies and keys). The chunk takes longer when the
machine is slow. A calibrated time is the time spent in the program,
calibration chunks taken out, times the mean over the samples of
REF_CHUNK_S divided by the chunk's time: seconds at the reference speed.

The slowdown changes within seconds, so a chunk timed between passes does
not track it; interleaved every 50 ms, it does. perfbench/README.md gives
the figures.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

# The chunk's time on the reference machine, a calm 2-vCPU 2.1 GHz Xeon VM
# under Python 3.11; it only sets the unit of a calibrated time.
REF_CHUNK_S = 0.00125
CHUNK_ITERATIONS = 30
INTERVAL_S = 0.05


def clock() -> float:
    return time.perf_counter()


class _Slot:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d) -> None:
        self.a, self.b, self.c, self.d = a, b, c, d


def _work(iterations: int) -> int:
    seen = set()
    for i in range(iterations):
        slots = [_Slot(j, i, (j, i), [j]) for j in range(40)]
        copies = [_Slot(s.a, s.b, s.c, list(s.d)) for s in slots]
        seen.add("|".join(f"{s.a}:{s.b}:{s.c[0]}" for s in copies))
        if {s.a: s for s in copies}[i % 40].b != i:
            raise AssertionError("calibration chunk computed a wrong value")
    return len(seen)


def chunk() -> float:
    """Seconds one calibration chunk takes now. The chunk makes no cycles,
    so the collector is off: a collection would time the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = clock()
        _work(CHUNK_ITERATIONS)
        return clock() - began
    finally:
        if enabled:
            gc.enable()


def sample(count: int) -> list[float]:
    """`count` chunk times, after one chunk of warm-up."""
    chunk()
    return [chunk() for _ in range(count)]


def speed_scale(samples: list[float]) -> float:
    """Reference seconds per measured second, from chunk times."""
    return REF_CHUNK_S * statistics.fmean(1 / s for s in samples)


class Sampler:
    """Samples the machine's speed while a timed region runs.

    `with sampler.sampling(): ...` times the region in `wall_s`. One chunk
    runs just before the region, after a warm-up chunk, and one just after, so that even a region
    shorter than INTERVAL_S has samples; the chunks inside the region are
    summed in `busy_s`, for `calibrated()` to take out.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0
        self.wall_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        took = chunk()
        self.samples.append(took)
        self.busy_s += took

    @contextmanager
    def sampling(self):
        self.samples += sample(1)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        began = clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self.wall_s = clock() - began
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(chunk())

    def calibrated(self) -> float:
        """The region's wall time, chunks taken out, in reference seconds."""
        return (self.wall_s - self.busy_s) * speed_scale(self.samples)
