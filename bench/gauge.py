"""The machine's current speed, read off a fixed reference computation.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a third over tens of seconds, and differently from one minute to the
next, as other tenants load it. The gauge times a fixed reference
computation between the timed operations, every tenth of a second and right
after every longer operation; an operation's time is then divided by the
median of the measurements taken within half a second of it. What is left
is the operation's cost in gauge units, which the machine's drift moves far
less than its wall time.

The reference computation resembles the program's own mix of work: a
Python loop over dicts and sets (the shape of corpus scoring), small matrix
products through tanh with their backward pass (the pair scorer), and
elementwise updates of a vector the size of a model's parameters (the Adam
step). It never calls corefkit, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# the gauge is measured again when its last measurement is this old
INTERVAL_S = 0.1
# an operation is read against the measurements this close to it
WINDOW_S = 0.5
# about the reference computation's median time on the reference machine
# (bench/README.md): a cost in gauge units times this is seconds at that
# machine's typical speed, so the rates read close to wall-clock ones
REFERENCE_S = 0.003


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((8, 96))
        self._w = rng.standard_normal((64, 96)) * 0.1
        self._v = rng.standard_normal(40_000)
        self._m = np.zeros_like(self._v)
        self._keys = [(i % 7, i % 5) for i in range(60)]
        self.times: list[float] = []
        self.seconds: list[float] = []

    def _work(self) -> None:
        for _ in range(18):
            clusters: dict = {}
            for key in self._keys:
                clusters.setdefault(key[0], set()).add(key)
            sum(len(a & b) for a in clusters.values() for b in clusters.values())
        for _ in range(36):
            hidden = np.tanh(self._x @ self._w.T)
            dz = (1.0 - hidden * hidden) * hidden.sum(axis=1, keepdims=True)
            (dz.T @ self._x).sum()
        for _ in range(9):
            self._m *= 0.9
            self._m += 0.1 * self._v
            np.sqrt(self._m * self._m + 1e-8).sum()

    def tick(self) -> None:
        """Measure the reference computation if the last measurement is old."""
        if self.times and time.perf_counter() - self.times[-1] <= INTERVAL_S:
            return
        start = time.perf_counter()
        self._work()
        self.times.append(time.perf_counter())
        self.seconds.append(self.times[-1] - start)

    def reading(self, start: float, end: float) -> float:
        """Median of the measurements within the window around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return statistics.median(self.seconds[lo:hi] or self.seconds)
