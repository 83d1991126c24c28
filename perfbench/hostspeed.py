"""Host-speed readings, so that reported times do not follow the host's speed.

The benchmark's host (2 vCPUs of a shared machine, see RECORD.md) runs at two
speeds that alternate for seconds to minutes: a fixed loop takes 1.6-1.8 times
as long on a slow stretch, in wall and in CPU time alike and on both vCPUs at
once.  Medians over a run cannot remove that when a slow stretch outlasts the
run, so every time the benchmark reports is scaled to one reference speed:

    reported seconds = measured seconds x REFERENCE_S / reading

where a reading is the median of three timings of `reference_loop`, taken
between jobs (never inside one), and a job's reading is the mean of the
readings just before and just after it.  `reference_loop` uses only the
standard library's Fraction, tuples, sorting, hashing and small numpy
operations, never waveletsets, so a change to the program does not move it;
a slower or faster program moves the reported times in full.  The measured
(unscaled) times are printed beside every scaled one.
"""

from __future__ import annotations

from fractions import Fraction as F
from time import perf_counter

import numpy as np

# Seconds that one reading takes at the reference speed (about the fast speed
# of the recording host); it only sets the scale of the reported seconds.
REFERENCE_S = 0.010
READING_REPEATS = 3
# Readings between jobs come at most this often (seconds); a reading takes
# 30-50 ms, so short jobs share one.
READING_EVERY_S = 0.25
_XS = np.linspace(0.0, 1.0, 257)


def reference_loop() -> int:
    """Fixed work like the program's: dyadic Fraction boxes, tuples, sorting,
    hashing, and float array operations."""
    boxes = []
    for i in range(400):
        d = 1 << (i % 9 + 1)
        lo = (F((i * 37) % d, d), F((i * 11) % d, d))
        boxes.append((lo, (lo[0] + F(1, d), lo[1] + F(1, d))))
    out = []
    for (a, b), (c, e) in zip(boxes, boxes[1:] + boxes[:1]):
        lo = (max(a[0], c[0]), max(a[1], c[1]))
        hi = (min(b[0], e[0]), min(b[1], e[1]))
        if lo[0] < hi[0] and lo[1] < hi[1]:
            out.append((lo, hi))
        out.append(((a[0] - c[0]) * (b[1] + e[1]), hash(a)))
    out.sort(key=repr)
    acc = 0.0
    for k in range(60):
        acc += float(np.abs(np.sin(_XS * k) - _XS).max())
    return len({repr(o) for o in out}) + int(acc)


def reading() -> float:
    """Median of READING_REPEATS timings of the reference loop, in seconds."""
    times = []
    for _ in range(READING_REPEATS):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return sorted(times)[READING_REPEATS // 2]


class HostSpeed:
    """Takes a reading at most every READING_EVERY_S between jobs and gives
    each job waiting for one the factor (mean of the readings around it) /
    REFERENCE_S; measured seconds divided by the factor are reported."""

    def __init__(self):
        self.readings: list = []
        self._pending: list = []  # callbacks waiting for the next reading
        self._take()

    def _take(self) -> None:
        self.readings.append(reading())
        self._t_last = perf_counter()

    def wait(self, assign) -> None:
        """Queue `assign(factor)` for the span since the last reading."""
        self._pending.append(assign)

    def between(self, force: bool = False) -> None:
        """Called between jobs: take a reading when one is due (or forced)
        and settle the factor of every job since the previous reading."""
        if not self._pending or (not force and perf_counter() - self._t_last < READING_EVERY_S):
            return
        before = self.readings[-1]
        self._take()
        factor = (before + self.readings[-1]) / 2 / REFERENCE_S
        for assign in self._pending:
            assign(factor)
        self._pending = []
