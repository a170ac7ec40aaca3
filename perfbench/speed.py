"""Machine speed samples, so timings can be scaled to a fixed speed.

On a shared host the same pass takes anywhere from 1.4 to 2.5 s as the
processor's speed drifts on a scale of seconds; CPU time drifts with it.
A SIGALRM timer therefore interrupts the process every ``INTERVAL``
seconds to time a fixed chunk of 160-digit mpmath arithmetic, the kind of
work telesim's coefficient evaluator does. An interval measured at time
``t`` is scaled by ``REFERENCE_CHUNK_S / c``, where ``c`` is the mean chunk
time of the samples within ``WINDOW`` seconds of the interval (the mean,
because wall time adds up the slow moments as well as the fast ones); the
time the handler itself spent inside the interval is taken out first.
Scaled values read as seconds on a machine that runs the chunk in
``REFERENCE_CHUNK_S``.

The chunk uses its own mpmath context, so it shares no state with the
program under test. Signals run handlers in the main thread between
bytecodes; no thread is started.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import mpmath

INTERVAL = 0.025
WINDOW = 0.1
CHUNK_STEPS = 50
REFERENCE_CHUNK_S = 2e-3


class SpeedSampler:
    """Times the calibration chunk on a timer while active."""

    def __init__(self):
        self._ctx = mpmath.mp.clone()
        self._ctx.dps = 160
        self.times: list[float] = []
        self.chunks: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _chunk(self) -> None:
        ctx = self._ctx
        x, y, acc = ctx.mpc(1.1, 0.3), ctx.mpc(0.7, -0.2), ctx.mpc(0)
        for _ in range(CHUNK_STEPS):
            acc += x * y
            x = x / (y + 1) + 0.5

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._chunk()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.chunks.append(end - start)
        self.spent += end - start

    def __enter__(self) -> "SpeedSampler":
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(signal.SIGALRM, None)

    def clock(self) -> tuple[float, float]:
        """A reading for :meth:`scaled`: wall time and handler time so far."""
        return time.perf_counter(), self.spent

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two readings, less handler time, at reference speed."""
        raw = (end[0] - start[0]) - (end[1] - start[1])
        return raw * REFERENCE_CHUNK_S / self.chunk_near(start[0], end[0])

    def chunk_near(self, begin: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, begin - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        return statistics.fmean(self.chunks[lo:hi] or self.chunks)
