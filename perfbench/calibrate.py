"""Host-speed calibration for the end-to-end latencies and set-up time.

On a shared 2-vCPU host the speed of the very same code drifts over
tens of seconds: a fixed pure-Python loop ran up to 1.5x faster in some
seconds than in others, and its 10-second averages differed by up to
30 %.  That swamps the run-to-run comparison of raw wall times.
Before every operation the loop times a small fixed kernel owned by the
benchmark — a union over keyword sets, set work of the kind the
program spends much of its time in — and scales the operation's wall
time by ``REFERENCE_SECONDS / median(kernel times)`` over the WINDOW
samples centred on the operation.  Set-up times are scaled by the
median of the kernel times taken just before and after every set-up of
the run.
Raw wall times are printed beside the scaled ones.

The kernel makes one untimed pass over its data before the timed one,
so the timed pass starts from the same cache state whatever the program
did before it: a program that touches less memory must not make the
kernel faster and so hide part of its own gain.  ``calibration_check.py``
measures how far it still can, and ``design.json`` records the result:
with the planner's store scan memoised (queries ~7x faster) the kernel
ran 0.9-1.4 % faster in three runs, so scaled times hide about that
share of such a gain.  Without the untimed pass it ran 8 % faster.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List

#: Kernel time at the reference host speed; scaled times are those of
#: a host on which the kernel takes this long.
REFERENCE_SECONDS = 0.62e-3
#: Kernel samples (centred on the operation) the speed estimate is the
#: median of: about a second of operations, short against the drift.
WINDOW = 61
#: The kernel unions _SETS sets of _SET_SIZE terms over a _TERMS-term
#: vocabulary (the shape of the SYN objects): ~0.7 MB, which stays in
#: cache between its untimed and its timed pass.
_SETS = 1000
_SET_SIZE = 15
_TERMS = 1000


class HostClock:
    """Times the kernel; turns wall times into reference-speed times.

    The kernel's data is generated here from a fixed seed, so neither
    the program nor the workload can change what it measures.
    """

    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        vocabulary = [f"term{i}" for i in range(_TERMS)]
        self._sets = [
            frozenset(rng.sample(vocabulary, _SET_SIZE)) for _ in range(_SETS)
        ]
        #: One kernel time per operation, in operation order.
        self.samples: List[float] = []

    def _union(self) -> int:
        vocabulary: set = set()
        for terms in self._sets:
            vocabulary.update(terms)
        return len(vocabulary)

    def _time_kernel(self) -> float:
        self._union()  # untimed: brings the kernel's data into cache
        t0 = time.perf_counter()
        self._union()
        return time.perf_counter() - t0

    def sample(self) -> int:
        """Time the kernel before an operation; returns the sample index."""
        self.samples.append(self._time_kernel())
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Scale factor for the operation that followed sample ``index``."""
        half = WINDOW // 2
        window = self.samples[max(0, index - half):index + half + 1]
        return REFERENCE_SECONDS / statistics.median(window)

    def burst(self, count: int = WINDOW // 2 + 1) -> List[float]:
        """``count`` kernel times taken now (around a set-up)."""
        return [self._time_kernel() for _ in range(count)]

    @staticmethod
    def scale_of(times: List[float]) -> float:
        return REFERENCE_SECONDS / statistics.median(times)
