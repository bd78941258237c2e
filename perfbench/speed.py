"""Machine-speed calibration for timings on a shared, noisy machine.

On a host shared with other tenants the same operation can take 80 %
longer a minute later, and a fixed pure-Python loop slows by about the
same share at the same time.  The benchmark therefore runs such a loop
between operations (never inside the timed region) and scales every
operation's latency by NOMINAL_S over the loop's local median time: a
latency in milliseconds at the speed where the loop takes NOMINAL_S.
The loop mixes integer and float arithmetic with small lists, dicts and
complex numbers, like the library's kernels, and runs with the garbage
collector off, so the program's heap cannot change its time.
"""

import bisect
import gc
import statistics
import time

NOMINAL_S = 1e-3
# calibration samples per operation's neighbourhood
NEIGHBOURS = 15


def _loop():
    x = 0.5
    acc = 0
    for i in range(4500):
        x = x * 0.999999 + (i & 7) * 0.125
        acc ^= (i * 2654435761) & 0xFFFF
    for _ in range(3):
        xs = [i * 0.37 for i in range(300)]
        table = {}
        for i, v in enumerate(sorted(xs, reverse=True)):
            table[i % 17] = table.get(i % 17, 0.0) + v * 1.0001
        z = 0j
        for v in xs[:200]:
            z += complex(v, 1.0) * 0.5
    return x + acc + z.real


def sample():
    """Seconds one run of the calibration loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibration samples taken over a run, with their times."""

    def __init__(self):
        self.times = []
        self.durations = []

    def tick(self, count=1):
        for _ in range(count):
            self.durations.append(sample())
            self.times.append(time.perf_counter())

    def factor(self, t):
        """NOMINAL_S over the median loop time of the samples nearest t."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.times) - NEIGHBOURS))
        return NOMINAL_S / statistics.median(self.durations[lo : lo + NEIGHBOURS])
