"""Times scaled to a reference machine speed.

The shared 2-CPU hosts this benchmark runs on change execution speed by
up to ~40% for seconds at a time: a fixed pure-Python loop timed back to
back for 30 seconds took between 30 and 66 ms per pass, with 2.5-second
medians from 40 to 51 ms.  CPU time tracks wall time, so the slowdowns
are in execution speed, not in scheduling.  Raw wall times of identical
durable_replay runs in one process spread 25% between quartiles.

:class:`SpeedClock` times a fixed interpreter kernel at least every
``PERIOD_NS`` while the benchmark works, and scales each measured
duration by ``KERNEL_REF_NS`` over the median kernel time of the
``NEIGHBOURS`` calibrations nearest to it; the same runs scaled this
way spread 10%.  A scaled time reads as the duration the work would have
taken on a machine running the kernel in exactly ``KERNEL_REF_NS``.  Raw
busy time stays in the report next to the scaled one.
"""

from __future__ import annotations

import bisect
import collections
import statistics
import time
from typing import Deque, List, Tuple

__all__ = ["KERNEL_REF_NS", "PERIOD_NS", "NEIGHBOURS", "kernel", "SpeedClock"]

#: The kernel's duration at the reference machine speed (a 2-CPU x86_64
#: host running CPython 3.11 in its faster observed state).
KERNEL_REF_NS = 1_000_000
#: Most time of work between two calibrations.
PERIOD_NS = 50_000_000
#: Calibrations around a duration whose median kernel time scales it.
NEIGHBOURS = 9


class _Node:
    def __init__(self, value: int, key: str) -> None:
        self.value = value
        self.key = key


def kernel() -> int:
    """Fixed interpreter work in the program's idiom: calls, objects, dicts, strings, sorting."""
    table: dict = {}
    rows = []
    for i in range(1500):
        node = _Node(i, f"k{i & 255}")
        table[node.key] = table.get(node.key, 0) + node.value
        rows.append((node.key, i))
    rows.sort()
    return len(table) + len(rows)


class SpeedClock:
    """Scales raw durations by calibrations interleaved with the work."""

    def __init__(self) -> None:
        self.half = NEIGHBOURS // 2
        self._stamps: List[int] = []
        self._kernels: List[int] = []
        #: (stamp, raw_ns, targets) not yet followed by ``half`` calibrations.
        self._pending: Deque[Tuple[int, int, tuple]] = collections.deque()
        self.calibrate()

    def calibrate(self, times: int = 1) -> None:
        """Time the kernel ``times`` times now."""
        for _ in range(times):
            start = time.perf_counter_ns()
            kernel()
            end = time.perf_counter_ns()
            self._stamps.append(end)
            self._kernels.append(end - start)

    def add(self, raw_ns: int, *targets) -> None:
        """Record ``raw_ns``, measured just now; its scaled value is appended
        to each target once enough calibrations surround it."""
        now = time.perf_counter_ns()
        self._pending.append((now, raw_ns, targets))
        if now - self._stamps[-1] >= PERIOD_NS:
            self.calibrate()
            self._drain(final=False)

    def settle(self) -> None:
        """Calibrate once more and scale everything still queued."""
        self.calibrate()
        self._drain(final=True)

    def _drain(self, final: bool) -> None:
        pending, stamps, kernels, half = self._pending, self._stamps, self._kernels, self.half
        factor_index, factor = -1, 0.0
        while pending:
            stamp, raw_ns, targets = pending[0]
            index = bisect.bisect_left(stamps, stamp)
            if not final and index + half >= len(stamps):
                return
            pending.popleft()
            if index != factor_index:
                nearby = kernels[max(0, index - half): index + half + 1]
                factor_index, factor = index, KERNEL_REF_NS / statistics.median(nearby)
            scaled = raw_ns * factor
            for target in targets:
                target.append(scaled)

    def kernel_ns(self) -> List[int]:
        return list(self._kernels)
