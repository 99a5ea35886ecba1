"""A vectorized pool of homogeneous timeout callbacks.

The event heap is the right structure for *heterogeneous* events, but SimDC
workloads schedule thousands of near-identical waits — device availability
windows, per-device network delays, the lock-step waves of the logical
tier.  Pushing each of those through the heap costs a push, a pop and
O(log n) tuple comparisons per wait.

:class:`TimeoutPool` stores such waits as NumPy arrays instead: deadlines
live in a float64 buffer (singletons) or in caller-provided ascending
arrays (sequences), and the pool keeps exactly *one* sentinel event in the
owning simulator's heap — armed at the earliest pooled deadline.  When the
sentinel fires, every entry due at that timestamp is drained in one batch.
Fired and cancelled singleton slots are compacted away periodically, so a
long-lived pool stays proportional to its *live* entries.

Determinism: within one drain, sequence chunks fire first (in chunk
insertion order), then singleton entries (in insertion order).  Entries
never fire before their deadline, and the pool never holds the clock back:
the sentinel is an ordinary kernel event, so pooled callbacks interleave
with heap events at the same timestamp according to the sentinel's own
``seq`` position.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.simulator import Simulator

#: ``fire(lo, hi, t)`` — entries ``[lo, hi)`` of the chunk's time array are due at ``t``.
SequenceFire = Callable[[int, int, float], None]

_ARMED = 1
_FIRED = 2
_CANCELLED = 3


class PooledTimeout:
    """Cancellable handle for one singleton pool entry."""

    __slots__ = ("_pool", "_index", "_final")

    def __init__(self, pool: TimeoutPool, index: int) -> None:
        self._pool = pool
        self._index = index
        self._final: int | None = None  # terminal state once resolved

    @property
    def cancelled(self) -> bool:
        """Whether this entry was cancelled before firing."""
        return self._final == _CANCELLED

    @property
    def fired(self) -> bool:
        """Whether this entry's callback has already run."""
        return self._final == _FIRED

    def cancel(self) -> None:
        """Remove the entry from the pool.  Idempotent; no-op after firing."""
        if self._final is None:
            self._pool._cancel(self._index)


class RecurringTimeout:
    """Cancellable handle for a recurring pooled tick.

    Each fire re-registers the next tick at ``fire_time + interval`` — the
    same ``now + delay`` accumulation a generator looping over
    ``yield Timeout(interval)`` produces, so replacing N lock-step polling
    processes with one recurring pool entry leaves every tick timestamp
    bit-identical.
    """

    __slots__ = ("_pool", "interval", "_callback", "_args", "_entry", "_cancelled")

    def __init__(
        self, pool: TimeoutPool, interval: float, callback: Callable[..., Any], args: tuple
    ) -> None:
        self._pool = pool
        self.interval = float(interval)
        self._callback = callback
        self._args = args
        self._entry: PooledTimeout | None = None
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """Whether the recurrence has been stopped."""
        return self._cancelled

    def cancel(self) -> None:
        """Stop ticking.  Idempotent; safe to call from inside the callback."""
        self._cancelled = True
        if self._entry is not None:
            self._entry.cancel()
            self._entry = None

    def _arm(self, time: float) -> None:
        self._entry = self._pool.add_at(time, self._fire)

    def _fire(self) -> None:
        self._entry = None
        if self._cancelled:
            return
        self._callback(*self._args)
        if not self._cancelled:
            self._arm(self._pool.sim.now + self.interval)


class _SequenceChunk:
    """One bulk-registered ascending run of deadlines."""

    __slots__ = ("times", "fire", "cursor")

    def __init__(self, times: np.ndarray, fire: SequenceFire) -> None:
        self.times = times
        self.fire = fire
        self.cursor = 0

    @property
    def next_time(self) -> float:
        return float(self.times[self.cursor])

    @property
    def remaining(self) -> int:
        return len(self.times) - self.cursor


class TimeoutPool:
    """Pool of timeouts backed by one sentinel event in the kernel heap.

    Parameters
    ----------
    sim:
        Owning simulator; the pool schedules its sentinel there.
    name:
        Label for debugging.
    """

    _INITIAL_CAPACITY = 64
    #: Compact singleton buffers once they reach this size and at least
    #: half the slots are dead (fired or cancelled).
    _COMPACT_THRESHOLD = 256

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        # Singleton entries: parallel NumPy buffers + payload/handle lists.
        self._times = np.empty(self._INITIAL_CAPACITY, dtype=np.float64)
        self._state = np.zeros(self._INITIAL_CAPACITY, dtype=np.int8)
        self._payloads: list[tuple[Callable[..., Any], tuple] | None] = [None] * self._INITIAL_CAPACITY
        self._handles: list[PooledTimeout | None] = [None] * self._INITIAL_CAPACITY
        self._count = 0
        self._dead = 0
        # Sequence chunks: a small heap keyed by each chunk's next deadline.
        self._chunk_heap: list[tuple[float, int, _SequenceChunk]] = []
        self._chunk_seq = itertools.count()
        self._sentinel = None  # kernel Event currently armed, if any
        self._live = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(self, delay: float, callback: Callable[..., Any], *args: Any) -> PooledTimeout:
        """Pool ``callback(*args)`` to fire after ``delay``; return a handle."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        return self.add_at(self.sim.now + delay, callback, *args)

    def add_at(self, time: float, callback: Callable[..., Any], *args: Any) -> PooledTimeout:
        """Pool ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.sim.now:
            raise ValueError(f"cannot pool a timeout in the past: {time!r} < {self.sim.now!r}")
        if self._count == len(self._times):
            self._grow()
        index = self._count
        handle = PooledTimeout(self, index)
        self._times[index] = time
        self._state[index] = _ARMED
        self._payloads[index] = (callback, args)
        self._handles[index] = handle
        self._count += 1
        self._live += 1
        self._arm(time)
        return handle

    def add_sequence(self, times: np.ndarray, fire: SequenceFire) -> None:
        """Register an ascending run of deadlines drained in vectorized slices.

        ``times`` must be a non-decreasing float array of absolute simulated
        times, none in the past.  When a timestamp ``t`` comes due, the pool
        calls ``fire(lo, hi, t)`` once for the contiguous slice of entries
        equal to ``t`` — the caller loops (or vectorizes) over its own
        per-entry payloads for that slice.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        if times.size == 0:
            return
        if np.any(np.diff(times) < 0):
            raise ValueError("sequence times must be non-decreasing")
        if times[0] < self.sim.now:
            raise ValueError(f"sequence starts in the past: {times[0]!r} < {self.sim.now!r}")
        chunk = _SequenceChunk(times, fire)
        heapq.heappush(self._chunk_heap, (chunk.next_time, next(self._chunk_seq), chunk))
        self._live += times.size
        self._arm(chunk.next_time)

    def add_recurring(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        first_at: float,
    ) -> RecurringTimeout:
        """Fire ``callback(*args)`` every ``interval`` until cancelled.

        The first fire is at absolute time ``first_at``; subsequent ticks
        accumulate as ``fire_time + interval``.  Returns a
        :class:`RecurringTimeout` handle whose ``cancel()`` stops the
        recurrence — including from within the callback itself.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        handle = RecurringTimeout(self, interval, callback, args)
        handle._arm(float(first_at))
        return handle

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Entries still waiting to fire (singletons + sequence tails)."""
        return self._live

    def next_deadline(self) -> float | None:
        """Earliest pending deadline across singletons and chunks."""
        candidates = []
        if self._chunk_heap:
            candidates.append(self._chunk_heap[0][0])
        if self._count:
            armed = self._state[: self._count] == _ARMED
            if armed.any():
                candidates.append(float(self._times[: self._count][armed].min()))
        return min(candidates) if candidates else None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        new_cap = 2 * len(self._times)
        times = np.empty(new_cap, dtype=np.float64)
        times[: self._count] = self._times[: self._count]
        state = np.zeros(new_cap, dtype=np.int8)
        state[: self._count] = self._state[: self._count]
        self._times = times
        self._state = state
        self._payloads.extend([None] * (new_cap - len(self._payloads)))
        self._handles.extend([None] * (new_cap - len(self._handles)))

    def _cancel(self, index: int) -> None:
        if self._state[index] == _ARMED:
            self._state[index] = _CANCELLED
            self._payloads[index] = None
            handle = self._handles[index]
            if handle is not None:
                handle._final = _CANCELLED
            self._handles[index] = None
            self._live -= 1
            self._dead += 1

    def _compact(self) -> None:
        """Drop fired/cancelled singleton slots, remapping live handles."""
        keep = np.nonzero(self._state[: self._count] == _ARMED)[0]
        new_count = len(keep)
        self._times[:new_count] = self._times[keep]
        self._state[:new_count] = _ARMED
        self._state[new_count : self._count] = 0
        payloads = self._payloads
        handles = self._handles
        for new_index, old_index in enumerate(keep):
            payloads[new_index] = payloads[old_index]
            handle = handles[old_index]
            handles[new_index] = handle
            if handle is not None:
                handle._index = new_index
        for index in range(new_count, self._count):
            payloads[index] = None
            handles[index] = None
        self._count = new_count
        self._dead = 0

    def _arm(self, deadline: float) -> None:
        sentinel = self._sentinel
        if sentinel is not None and not sentinel.cancelled:
            if sentinel.time <= deadline:
                return
            self.sim.cancel(sentinel)
        self._sentinel = self.sim.schedule_at(deadline, self._drain)

    def _drain(self) -> None:
        self._sentinel = None
        now = self.sim.now
        # 1. sequence chunks due now, in (deadline, insertion) order.
        heap = self._chunk_heap
        while heap and heap[0][0] == now:
            _, seq, chunk = heapq.heappop(heap)
            lo = chunk.cursor
            hi = lo + int(np.searchsorted(chunk.times[lo:], now, side="right"))
            chunk.cursor = hi
            self._live -= hi - lo
            chunk.fire(lo, hi, now)
            if chunk.remaining:
                heapq.heappush(heap, (chunk.next_time, seq, chunk))
        # 2. singleton entries due now, in insertion order.
        if self._count:
            view = self._times[: self._count]
            due = np.nonzero((self._state[: self._count] == _ARMED) & (view == now))[0]
            for index in due:
                # A callback fired earlier in this drain may have cancelled us.
                if self._state[index] != _ARMED:
                    continue
                callback, args = self._payloads[index]
                self._state[index] = _FIRED
                self._payloads[index] = None
                handle = self._handles[index]
                if handle is not None:
                    handle._final = _FIRED
                self._handles[index] = None
                self._live -= 1
                self._dead += 1
                callback(*args)
            if self._count >= self._COMPACT_THRESHOLD and 2 * self._dead >= self._count:
                self._compact()
        # 3. re-arm at the next pending deadline, if any.
        next_deadline = self.next_deadline()
        if next_deadline is not None:
            self._arm(next_deadline)
