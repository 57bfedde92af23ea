"""Machine-speed calibration: a fixed reference block timed next to the workload.

On a shared VM the same work can run up to 2x slower for minutes at a time,
and CPU time slows with it (the guest is not charged stolen time). A block
of fixed work that never changes with drsort is timed before and after each
timed call, and the call's time is scaled by
``REFERENCE_S / mean reference time`` around it. A slowdown of the whole
machine moves both by the same factor and cancels, while a change in
drsort's own cost does not touch the reference. The block mixes what drsort
spends its time on: small float64 matrix products, many numpy calls on tiny
arrays (whose cost is mostly call overhead) and interpreter-bound loops
over dicts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference block's time on the machine the benchmark was tuned on
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, OpenBLAS) in its fast
# state; calibrated times are expressed at that speed.
REFERENCE_S = 0.0050
PROBE_BLOCKS = 3

_rng = np.random.default_rng(20250312)
_X = _rng.standard_normal((64, 16))
_W1 = _rng.standard_normal((16, 64))
_W2 = _rng.standard_normal((64, 64))
_ROWS = [_rng.standard_normal(20) for _ in range(10)]


def reference_block() -> float:
    acc = 0.0
    for _ in range(20):
        hidden = np.maximum(_X @ _W1, 0.0)
        out = np.maximum(hidden @ _W2, 0.0)
        acc += float(out[np.argsort(out[:, 0])[:8], 1].sum())
    for _ in range(60):
        for row in _ROWS:
            acc += float(np.argmax(row)) + float(row[row > 0.0].sum())
    table: dict[int, int] = {}
    for i in range(4000):
        key = (i * 7919) % 97
        table[key] = table.get(key, 0) + i
    return acc + sum(table.values())


def probe() -> float:
    """Median time of a few reference blocks, in seconds."""
    times = []
    for _ in range(PROBE_BLOCKS):
        start = time.perf_counter()
        reference_block()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factor(references: list[float]) -> float:
    """Multiply a time measured among these probes by this to calibrate it.

    The mean, not the median: the machine flips between a fast and a slow
    state, and the mean follows the share of time spent in each.
    """
    return REFERENCE_S / statistics.fmean(references)
