"""Ascending deadline arrays merged behind one kernel event.

One deadline is a kernel event (:meth:`Simulator.schedule_at`, cancelled
with :meth:`Simulator.cancel`).  What a per-event heap push cannot do is
take a *whole array* of deadlines at once: a tier's completion wave is an
ascending run of thousands of timestamps, many of them equal, and pushing
each through the heap costs a push, a pop and O(log n) tuple comparisons
per device.

:class:`TimeoutPool` takes such a run as one NumPy array
(:meth:`TimeoutPool.add_sequence`) and splits it, once, into its
equal-time runs: one ``(end index, instant)`` entry per distinct
deadline.  It merges any number of sequences through a small heap keyed
by each sequence's next instant, and holds exactly *one* sentinel event in
the owning simulator's heap — armed at the earliest pooled deadline.  When
the sentinel fires, every sequence with entries due at that timestamp is
handed its contiguous slice in one call, read off its next entry: a drain
does no array search.

Determinism: within one drain, due chunks fire in chunk insertion order.
Entries never fire before their deadline, and the pool never holds the
clock back: the sentinel is an ordinary kernel event, so a pool's due
chunks fire together at the sentinel's position among the kernel events
of that timestamp (see :mod:`repro.simkernel`).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.events import Event
    from repro.simkernel.simulator import Simulator

#: ``fire(lo, hi, t)`` — entries ``[lo, hi)`` of the chunk's time array are due at ``t``.
SequenceFire = Callable[[int, int, float], None]


class _SequenceChunk:
    """One bulk-registered ascending run of deadlines, as its equal-time runs."""

    __slots__ = ("fire", "ends", "instants", "run", "cursor")

    def __init__(self, fire: SequenceFire, ends: list[int], instants: list[float]) -> None:
        self.fire = fire
        #: Per distinct instant, in order: the end of its entries and the instant.
        self.ends, self.instants = ends, instants
        self.run = self.cursor = 0  # the next run due, and where its entries start


class TimeoutPool:
    """Ascending deadline runs backed by one sentinel event in the kernel heap.

    Parameters
    ----------
    sim:
        Owning simulator; the pool schedules its sentinel there.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        # A small heap keyed by each chunk's next deadline, ties by insertion.
        self._chunk_heap: list[tuple[float, int, _SequenceChunk]] = []
        self._chunk_seq = itertools.count()
        self._sentinel: Event | None = None
        self._live = 0

    def add_sequence(self, times: np.ndarray, fire: SequenceFire) -> None:
        """Register an ascending run of deadlines drained in vectorized slices.

        ``times`` must be a non-decreasing float array of finite absolute
        simulated times, none in the past.  When a timestamp ``t`` comes
        due, the pool calls ``fire(lo, hi, t)`` once for the contiguous
        slice of entries equal to ``t`` — the caller loops (or vectorizes)
        over its own per-entry payloads for that slice.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        if times.size == 0:
            return
        finite = np.isfinite(times)
        if not finite.all():
            raise ValueError(f"sequence times must be finite, got {float(times[~finite][0])!r}")
        steps = np.diff(times)
        if np.any(steps < 0):
            raise ValueError("sequence times must be non-decreasing")
        if times[0] < self.sim.now:
            raise ValueError(f"sequence starts in the past: {times[0]!r} < {self.sim.now!r}")
        ends = np.append(np.flatnonzero(steps) + 1, times.size)
        chunk = _SequenceChunk(fire, ends.tolist(), times[ends - 1].tolist())
        first = chunk.instants[0]
        heapq.heappush(self._chunk_heap, (first, next(self._chunk_seq), chunk))
        self._live += times.size
        self._arm(first)

    @property
    def pending(self) -> int:
        """Entries still waiting to fire."""
        return self._live

    def next_deadline(self) -> float | None:
        """Earliest pending deadline, or ``None`` when the pool is empty."""
        return self._chunk_heap[0][0] if self._chunk_heap else None

    def _arm(self, deadline: float) -> None:
        sentinel = self._sentinel
        if sentinel is not None:
            if sentinel.time <= deadline:
                return
            self.sim.cancel(sentinel)
        self._sentinel = self.sim.schedule_at(deadline, self._drain)

    def _drain(self) -> None:
        self._sentinel = None
        now = self.sim.now
        # Chunks due now, in (deadline, insertion) order.
        heap = self._chunk_heap
        while heap and heap[0][0] == now:
            _, seq, chunk = heapq.heappop(heap)
            run = chunk.run
            lo, hi = chunk.cursor, chunk.ends[run]
            chunk.run, chunk.cursor = run + 1, hi
            self._live -= hi - lo
            chunk.fire(lo, hi, now)
            if hi < chunk.ends[-1]:
                heapq.heappush(heap, (chunk.instants[run + 1], seq, chunk))
        next_deadline = self.next_deadline()
        if next_deadline is not None:
            self._arm(next_deadline)
