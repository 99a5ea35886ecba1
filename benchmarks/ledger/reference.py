"""The yardstick: a fixed kernel timed next to every measured interval.

This sandbox's speed drifts by +-30% over minutes and by +-15% within
seconds (noisy neighbours on a shared host).  Measured at the commit that
added the ledger, ten 20 s runs of one workload spread (interquartile range
over median) by 10-23% in raw seconds, the slowest run 1.4-2.5x the fastest
— more than any bound a regression could be caught at — and by 3-8% once
calibrated.  So every host time the
ledger reports is *calibrated*: the raw time is scaled by how fast this fixed
kernel ran right before and right after the measured interval, relative to
:data:`NOMINAL_S`.  The unit stays seconds — seconds on a machine (and in a
moment) where the kernel takes exactly ``NOMINAL_S`` — and raw times are kept
beside the calibrated ones in every output.

The kernel is simulator-like pure Python: slotted objects, string keys, dict
and heap traffic, float arithmetic.  (A memory-bound numpy kernel was tried
and tracked the workloads' slowdowns worse, not better.)  It runs with the
garbage collector off, so its time does not depend on how much the program
under test left on the heap.  It must never change: every number in every
ledger file is expressed in it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter, process_time

#: What one kernel run is defined to take, in seconds (its median on the
#: box, and at the commit, where the ledger was first measured).
NOMINAL_S = 0.07


class _Device:
    __slots__ = ("index", "finish", "key")

    def __init__(self, index: int, finish: float, key: str) -> None:
        self.index = index
        self.finish = finish
        self.key = key


def kernel() -> float:
    """One fixed unit of simulator-like work; returns a checksum."""
    devices = [_Device(i, (i * 7919 % 1013) * 0.37, f"dev-{i:06d}") for i in range(25_000)]
    by_key = {device.key: device for device in devices}
    heap: list[tuple[float, int]] = []
    for device in devices:
        heapq.heappush(heap, (device.finish, device.index))
    total = 0.0
    while heap:
        finish, index = heapq.heappop(heap)
        total += finish + by_key[devices[index].key].index % 3
    for i in range(90_000):
        total += i * 3 % 7
    return total


class Tick:
    """One timed kernel run: how slow the machine is right now, per clock."""

    __slots__ = ("wall_s", "cpu_s")

    def __init__(self) -> None:
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            cpu0 = process_time()
            start = perf_counter()
            kernel()
            self.wall_s = perf_counter() - start
            self.cpu_s = process_time() - cpu0
        finally:
            if was_enabled:
                gc.enable()


def speed(*kernel_seconds: float) -> float:
    """Machine speed relative to nominal, from kernel timings taken around an interval.

    Multiply a raw host time by this to calibrate it: a slow moment (kernel
    above nominal) gives a factor below one.
    """
    return NOMINAL_S / statistics.fmean(kernel_seconds)
