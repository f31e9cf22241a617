"""Host-speed calibration for the end-to-end timings.

On a shared virtual machine the CPU's speed can drift by up to 1.7x over
tens of seconds (measured on a 2-vCPU VM, with steal time near 0, so process
CPU time drifts the same way). A fixed kernel, timed between verdicts,
measures that speed: each timing is scaled by CAL_REF_S over the kernel's
time around it, giving seconds at the speed at which the kernel takes
CAL_REF_S. The kernel is pure Python on the program's kind of data (a large
dict of small tuples, hashed tuple keys, a growing memo table) and does not
call the program, so a change to the program moves the scaled timings and
not the scale.
"""

from __future__ import annotations

import random
from time import perf_counter

# The kernel's median time on the 2-vCPU VM the baseline was measured on
# (Python 3.11), so scaled seconds read close to that VM's wall seconds.
CAL_REF_S = 0.025
REPEATS = 3           # a measurement is the fastest of this many kernel runs
TABLE_SIZE = 1 << 16
KERNEL_KEYS = 1 << 14   # table entries one kernel run visits


class Calibrator:
    def __init__(self):
        rng = random.Random("calibration")
        self.table = {i * 2654435761 % (1 << 32):
                      (rng.randrange(300), rng.randrange(TABLE_SIZE), rng.randrange(TABLE_SIZE))
                      for i in range(TABLE_SIZE)}
        keys = list(self.table)
        rng.shuffle(keys)
        self.keys = keys[:KERNEL_KEYS]

    def kernel(self) -> int:
        table, memo, acc = self.table, {}, 0
        for key in self.keys:
            var, lo, hi = table[key]
            pair = (lo & 0x3fff, hi & 0xff)
            found = memo.get(pair)
            if found is None:
                found = memo[pair] = (var, lo ^ hi)
            acc += found[0]
        return acc

    def measure(self) -> float:
        """Seconds of one kernel run at the host's current speed."""
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            self.kernel()
            best = min(best, perf_counter() - start)
        return best
