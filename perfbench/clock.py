"""Chunk timing that is corrected for the host's current speed.

The host this benchmark was built on changes speed by up to 2x within
seconds (other tenants share the machine), which moves raw per-chunk
timings far more than the changes the benchmark has to detect.  So
every chunk boundary also times a :class:`Yardstick`, a fixed
pure-Python loop that no simulator change can affect, and a chunk's
host time is scaled by ``REFERENCE_S / yardstick time`` (the mean of
the yardsticks at its two ends): host time "at reference speed".
"""

import statistics
import time

#: Yardstick time that defines reference speed (about its fast-state
#: time on the development host).  A fixed scale, not a tuning knob.
REFERENCE_S = 150e-6


class _Cell:
    __slots__ = ("total", "slots")

    def __init__(self):
        self.total = 0
        self.slots = [0, 0, 0, 0]

    def step(self, i):
        self.total += i & 3
        self.slots[i & 3] = self.total


class Yardstick:
    """About 1300 method calls on plain objects, like a simulator tick."""

    def __init__(self, cells=64, rounds=20):
        self._cells = [_Cell() for _ in range(cells)]
        self._rounds = rounds

    def measure(self):
        """Seconds one pass of the loop takes now."""
        cells = self._cells
        start = time.perf_counter()
        for i in range(self._rounds):
            for cell in cells:
                cell.step(i)
        return time.perf_counter() - start


def scale(yardsticks):
    """Factor taking host time measured at ``yardsticks`` to reference speed."""
    return REFERENCE_S * len(yardsticks) / sum(yardsticks)


def at_reference_speed(fn, samples=5):
    """Call ``fn()``; return (its host seconds at reference speed, result).

    The yardstick runs ``samples`` times just before and just after.
    """
    yardstick = Yardstick()
    around = [yardstick.measure() for _ in range(samples)]
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    around.extend(yardstick.measure() for _ in range(samples))
    return seconds * REFERENCE_S / statistics.median(around), result


class ChunkClock:
    """Engine observer timing equal chunks of simulated cycles.

    Armed with :meth:`arm`, chunk ``k`` spans cycles ``first + k*chunk
    + 1`` to ``first + (k+1)*chunk``.  Its host time is measured from
    the end of the chunk's first cycle to the end of its last, so work
    done between two ``run`` calls (the events engine's per-run
    prepare, a chaos soak's fault service and snapshot writes) never
    lands in a chunk: each chunk times ``chunk - 1`` cycles of pure
    simulation.  The yardstick runs at the end of each chunk, also
    outside the timed span.  ``next_event_cycle`` keeps the events
    engine's idle-gap compression from jumping over a stamp.

    With a ``sink`` (a callable taking one boundary) each boundary is
    also passed on, so a clock inside a worker process can report
    through the soak's run log.
    """

    name = "perfbench-chunk-clock"

    def __init__(self, sink=None):
        self.sink = sink
        #: ``(end, yardstick, start)`` per boundary: the time the
        #: previous chunk ended, the yardstick then, and the time the
        #: next chunk's timed span began.
        self.boundaries = []
        self._yardstick = Yardstick()
        self._pending = None
        self._next = None
        self._last = None
        self._chunk = 1

    def arm(self, first, chunk, count):
        self.boundaries = []
        self._pending = None
        self._chunk = chunk
        self._next = first
        self._last = first + chunk * count

    def tick(self, cycle):
        if self._next is None or cycle < self._next:
            return
        now = time.perf_counter()
        if self._pending is not None:
            self._record(self._pending + (now,))
            self._pending = None
            self._next = cycle - 1 + self._chunk
            return
        yardstick = self._yardstick.measure()
        if cycle >= self._last:
            self._record((now, yardstick, None))
            self._next = None
        else:
            self._pending = (now, yardstick)
            self._next = cycle + 1

    def _record(self, boundary):
        self.boundaries.append(boundary)
        if self.sink is not None:
            self.sink(boundary)

    def next_event_cycle(self):
        return float("inf") if self._next is None else self._next


def chunk_costs(boundaries, chunk):
    """Host us per simulated cycle of each chunk, at reference speed.

    :param boundaries: ``(end, yardstick, start)`` per boundary, as a
        :class:`ChunkClock` records them.
    :param chunk: simulated cycles per chunk (``chunk - 1`` are timed).
    """
    return [
        1e6 * (b[0] - a[2]) / (chunk - 1) * scale((a[1], b[1]))
        for a, b in zip(boundaries, boundaries[1:])
    ]
