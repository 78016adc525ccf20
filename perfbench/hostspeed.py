"""The host-speed reference that every timed figure is normalized by.

On a small shared host (measured on a two-vCPU virtual machine) the same
code ran up to twice as fast on one CPU as on the other, and each CPU's
speed drifted by a quarter over tens of seconds, so raw wall times of one
run say as much about the host as about the program.
A fixed block of pure-Python work (dicts, tuples, frozensets and a sort,
the operations the automata code is made of; nothing from ``repro``) is
timed on the same CPU, interleaved with the workload's units, and each
unit's time is scaled by ``REFERENCE_MS`` over the median of the blocks
timed nearest to it.  A figure then reads as milliseconds on a host on
which the block takes ``REFERENCE_MS``.  A change to the program moves
the unit times and not the blocks, so it shows in full.

The benchmark pins itself, and so every process it starts, to one CPU
(``pin_to_one_cpu``), so that blocks and units share that CPU.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import time

#: The nominal time of one reference block, in ms.
REFERENCE_MS = 2.5
#: A unit is scaled by the median of this many blocks nearest in time.
NEAREST = 9


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts from now on, to
    the lowest CPU it may run on; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _reference_work() -> int:
    seen: dict = {}
    for i in range(2000):
        key = (i % 97, (i * 7) % 89, frozenset((i % 5, i % 11)))
        seen.setdefault(key, []).append(i)
    return sum(len(seen[key]) for key in sorted(seen,
                                                key=lambda k: (k[1], k[0])))


class HostSpeed:
    """Reference blocks timed during one run, in the order taken."""

    def __init__(self) -> None:
        self.at_ns: list = []
        self.block_ms: list = []

    def sample(self, count: int = 1) -> None:
        """Time ``count`` reference blocks (the cyclic collector is off
        during each, so the program's heap cannot slow them)."""
        for _ in range(count):
            enabled = gc.isenabled()
            gc.disable()
            try:
                began = time.perf_counter_ns()
                _reference_work()
                ended = time.perf_counter_ns()
            finally:
                if enabled:
                    gc.enable()
            self.at_ns.append(began)
            self.block_ms.append((ended - began) / 1e6)

    def factor(self, at_ns: int) -> float:
        """``REFERENCE_MS`` over the median of the ``NEAREST`` blocks
        timed nearest to ``at_ns``: what a time measured then is
        multiplied by."""
        index = bisect.bisect_left(self.at_ns, at_ns)
        low = max(0, min(index - NEAREST // 2, len(self.at_ns) - NEAREST))
        return REFERENCE_MS / statistics.median(
            self.block_ms[low:low + NEAREST]
        )

    def median_ms(self) -> float:
        return statistics.median(self.block_ms) if self.block_ms else 0.0
