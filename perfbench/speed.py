"""Interpreter speed probe used to scale measured times.

On a shared host the same code runs 20-40 % slower or faster from one
minute to the next.  ``probe`` times a fixed pure-Python kernel of the kind
the engines spend their time in (breadth-first search over tuples, dict and
set lookups, sorting).  The benchmark probes between ops and multiplies each
measured time by ``REFERENCE_S`` over the probe times nearest to it, which
reports it as if the host ran at the reference speed.  Raw times are
printed beside the scaled ones.
"""

import bisect
import statistics
import time

# Median probe time on the machine the baseline was recorded on.
REFERENCE_S = 0.0025

_ADJ = [tuple((v * m + 1) % 512 for m in (3, 5, 7)) for v in range(512)]


def probe() -> float:
    start = time.perf_counter()
    for root in range(0, 512, 96):
        level = {root: 0}
        queue = [root]
        for x in queue:
            for y in _ADJ[x]:
                if y not in level:
                    level[y] = level[x] + 1
                    queue.append(y)
        sorted(level.items(), key=lambda item: (item[1], item[0]))
    return time.perf_counter() - start


class Scale:
    """Probes taken through a run; ``factor(t)`` scales a time measured
    around ``t`` by the median of the six probes nearest to it."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.times: list[float] = []

    def probe(self) -> None:
        self.at.append(time.perf_counter())
        self.times.append(probe())

    def factor(self, t: float) -> float:
        j = bisect.bisect(self.at, t)
        return REFERENCE_S / statistics.median(self.times[max(0, j - 3): j + 3])
