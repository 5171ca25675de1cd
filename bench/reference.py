"""A fixed reference loop that gauges the machine's current speed.

On a shared virtual machine the same work runs up to 1.8 times faster or
slower from one minute to the next.  The worker runs this loop before
every item and scales the item's time by ``NOMINAL_S`` over the loop's
local time (a rolling median), so item times read as if the machine ran
at the speed at which the loop takes ``NOMINAL_S``.  The loop mixes the kinds of work the
library does (Fraction arithmetic, pure-Python float loops, small numpy
calls, JSON) and does not use ``heismoduli``, so a change to the library
leaves it alone.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_S = 0.002  # scaled times read as if the loop took 2 ms
WINDOW = 15  # reference samples in the rolling median that scales one item

_A = [[1.0 + ((3 * i + 5 * j) % 7) / 7 for j in range(6)] for i in range(6)]
_S = np.array(_A) @ np.array(_A).T


def reference_work():
    f = Fraction(0)
    for k in range(1, 200):
        f += Fraction(k, 2 * k + 1)
    m = _A
    for _ in range(10):
        m = [[sum(x * y for x, y in zip(row, col)) / 7 for col in zip(*_A)] for row in m]
    for _ in range(12):
        np.linalg.eigvalsh(_S)
        np.linalg.det(_S)
    json.loads(json.dumps({"rows": [[str(Fraction(i, 3)) for i in range(6)]] * 6}))
    return f, m


def time_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def speed_factors(samples: list[float]) -> list[float]:
    """NOMINAL_S over the rolling median of the reference times around
    each sample: the factor that scales the item timed next to it."""
    half = WINDOW // 2
    return [NOMINAL_S / statistics.median(samples[max(0, i - half):i + half + 1])
            for i in range(len(samples))]
