"""A fixed pure-Python computation that the benchmark times as its yardstick.

The host's speed drifts by tens of percent over minutes.  Dividing a time
by the reference time measured next to it gives a cost that does not move
with the host.  The kernel mixes the dict, float and list operations the
planner and simulator spend their time in, and imports nothing, so it can
run in a fresh process before ``ndftsim`` is imported.
"""

import statistics
import time

# Median sample time on an idle 2-vCPU x86-64 virtual machine (Python
# 3.11.7).  Set-up is reported as its reference-unit cost times this, i.e.
# in seconds on a host of that speed; a constant, so no change moves it.
NOMINAL_S = 0.013


class Reference:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            table: dict[int, float] = {}
            acc, recent = 0.0, []
            for i in range(20000):
                key = i & 255
                value = table.get(key, 0.0) + i * 0.5
                table[key] = value
                acc += value / (key + 1)
                recent.append(acc)
                if len(recent) > 64:
                    recent.clear()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def median(self) -> float:
        return statistics.median(self.samples)
