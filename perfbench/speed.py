"""Machine-speed probe that rescales measured times to a reference speed.

The benchmark runs on shared virtual machines whose speed drifts with the
load of other tenants.  On the 2-core VM where it was written, a fixed
Python loop took anywhere from 14 to 22 ms within one 40-second window,
and ten consecutive 30-second runs of one workload gave batch medians
from 1.95 to 3.22 s.  Process CPU time followed wall time and steal time
stayed near zero, so the drift is in the shared hardware, not in the
process, and no choice of clock or estimator removes it.

The probe times a fixed pure-Python kernel, independent of steinercycles,
between verdicts: before a verdict when INTERVAL_S has passed since the
last sample, and after every verdict that itself took INTERVAL_S or more.
A verdict's time is multiplied by REFERENCE_S over the kernel time around
it (the sample just before a short verdict, the mean of the samples on
both sides of a long one).  A sample is the fastest of REPEAT kernel runs,
which drops a run slowed by caches the previous verdict left cold.  So
every reported time is the time the work would take on a machine where
the kernel takes exactly REFERENCE_S.  The kernel has the same shape as
the solver's inner loops (recursive depth-first search over tuples, sets and
dicts), so it speeds up and slows down with them.  Raw times are printed
next to the rescaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 1e-3
INTERVAL_S = 0.05
REPEAT = 3  # a sample is the fastest of this many kernel runs

_ADJ = {v: tuple(w for w in range(7) if w != v) for v in range(7)}
_PATHS = 1957  # simple paths starting at vertex 0 of the complete digraph K7


def kernel() -> int:
    """Count the simple paths from vertex 0 of the complete digraph K7."""
    seen = {0}
    count = 0

    def dfs(v):
        nonlocal count
        count += 1
        for w in _ADJ[v]:
            if w not in seen:
                seen.add(w)
                dfs(w)
                seen.discard(w)

    dfs(0)
    if count != _PATHS:
        raise RuntimeError(f"speed kernel counted {count} paths, not {_PATHS}")
    return count


class SpeedProbe:
    """Kernel timings taken at most every INTERVAL_S seconds."""

    def __init__(self):
        self.samples = []
        self._last = None

    def sample(self, force: bool = False) -> None:
        if not force and self._last is not None and \
                perf_counter() - self._last < INTERVAL_S:
            return
        best = None
        for _ in range(REPEAT):
            start = perf_counter()
            kernel()
            self._last = perf_counter()
            best = min(best or 1e9, self._last - start)
        self.samples.append(best)

    @property
    def kernel_s(self) -> float:
        """Median kernel time over all samples."""
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.kernel_s
