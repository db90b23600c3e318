"""Host-speed reference that the benchmark's timings are scaled by.

On a shared host the speed of one core drifts: the same computation was seen
to take 1.8 times longer from one second to the next, with no other process
running. Medians over a run do not remove a drift that lasts for minutes. So
every timed call is bracketed by a fixed reference computation,
exact Gauss-Jordan elimination on a constant rational matrix in plain Python
(the kind of work posetsys does, but none of its code). A call's figure is

    wall seconds * REF_NOMINAL_S / (mean of the reference times before and after)

that is, its wall time on a host where the reference takes ``REF_NOMINAL_S``.
In six processes timed during such a drift, one operation's median varied
with a standard deviation of 22 to 24 % raw and 1 to 5 % scaled.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Reference time on the baseline machine when it is not slowed (2 vCPUs,
# Python 3.11.7); it only sets the scale of the reported seconds.
REF_NOMINAL_S = 0.0065

_ROWS, _COLS = 12, 16
_rng = random.Random(20201012)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(_COLS)]
           for _ in range(_ROWS)]


def _eliminate() -> list:
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(_COLS):
        piv = next((i for i in range(r, _ROWS) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(_ROWS):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == _ROWS:
            break
    return m


def reference_seconds() -> float:
    start = time.perf_counter()
    _eliminate()
    return time.perf_counter() - start


class Clock:
    """Times calls and scales them by the reference runs around each one."""

    def __init__(self):
        self.last = reference_seconds()

    def scale(self, wall: float) -> float:
        """Scale a wall time just measured; runs the reference that follows it."""
        before, self.last = self.last, reference_seconds()
        return wall * REF_NOMINAL_S * 2.0 / (before + self.last)
