"""Host times scaled to a reference host speed.

The benchmark host is shared with other machines' work. The same trial can
take 1.4 times as long for seconds or minutes at a time, so raw times of
whole 20-second runs differed by a quarter from run to run. The benchmark
therefore times a fixed piece of reference work, which does not touch the
program, several times at each end of every timed piece and, inside an
in-process round, every SAMPLE_EVERY_S from a timer signal. A piece's factor
is REFERENCE_S over the median of those reference times: a piece timed
while the host runs slow is scaled down as much as the reference work
slowed. The reference mixes integer arithmetic, attribute and dict lookups
and small numpy operations, because those are what the simulator spends its
time on; such a mix tracked the host's speed better than any one of them
alone.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

_ROW = np.arange(400, dtype=np.int64)
_COLUMN = np.arange(8, dtype=np.int64)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


_TABLE = {i: _Point(i, i + 1) for i in range(256)}


def reference_work() -> int:
    """The fixed work timed as a sample. It allocates nothing the cyclic
    garbage collector tracks, and its arrays are small enough to come from
    the heap rather than from fresh memory maps, so its time does not depend
    on how many objects the process holds or on the allocator's history."""
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    table = _TABLE
    for i in range(12_000):
        point = table[i & 255]
        if point.x in table:
            acc += table[point.x].y
    for _ in range(60):
        acc += int(np.abs(_ROW[:, None] - _COLUMN[None, :]).max()) + int(np.count_nonzero(_ROW % 7))
    return acc


class HostSpeed:
    """Reference-work samples taken through a run, and the factors they give."""

    # the reference work's time when this host runs fast; scaled times are
    # seconds on a host that runs the reference work in this time
    REFERENCE_S = 0.0035
    SAMPLE_EVERY_S = 0.1
    EDGE_SAMPLES = 5

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0        # time spent in samples so far

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def edge(self) -> None:
        """Samples at one end of a timed piece; several, because a piece
        that is not sampled throughout has only these."""
        for _ in range(self.EDGE_SAMPLES):
            self.sample()

    def mark(self) -> tuple[int, float]:
        """Start a timed piece."""
        first = len(self.samples)
        self.edge()
        return first, self.spent

    def close(self, mark) -> tuple[float, float]:
        """End the piece that began at ``mark``. Returns its factor and the
        time spent in samples taken inside it, which the piece's own clock
        counted and which must be taken off its time."""
        first, spent = mark
        inside = self.spent - spent
        self.edge()
        return self.REFERENCE_S / statistics.median(self.samples[first:]), inside

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every SAMPLE_EVERY_S of wall time while the block
        runs, from a timer signal, so the samples cover the block evenly
        whatever it calls. The handler runs between the block's bytecodes
        in this thread; its time is counted in ``spent``."""
        busy = [False]

        def handler(signum, frame):
            if not busy[0]:
                busy[0] = True
                try:
                    self.sample()
                finally:
                    busy[0] = False

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, fn, *args) -> float:
        """Time ``fn(*args)`` and return the scaled time."""
        mark = self.mark()
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        factor, inside = self.close(mark)
        return (elapsed - inside) * factor
