"""The simulation event loop."""

from __future__ import annotations

import math
from collections.abc import Callable, Generator
from heapq import heappop
from typing import Any

from repro.simkernel.events import Event, EventQueue
from repro.simkernel.processes import Process, ProcessError


class Simulator:
    """Owns the simulated clock and drives events and processes.

    All SimDC components share one ``Simulator``; simulated time only
    advances inside :meth:`run` / :meth:`run_until` / :meth:`step` /
    :meth:`step_batch`.  The clock starts at 0.0 (seconds by convention
    throughout SimDC).  An exception escaping a process that no other
    process is waiting on aborts the run with :class:`ProcessError`.
    """

    def __init__(self) -> None:
        self.now = 0.0
        #: With ``now``, the key of the event firing or last fired (infinite once :meth:`run` stops at ``until``).
        self.seq: float = -1
        self._queue = EventQueue()
        self._pending_error: ProcessError | None = None

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` time units.

        The callback and its arguments are stored as a ``(callback, args)``
        pair on the :class:`Event` — no per-event closure is allocated.
        """
        if not 0 <= delay < math.inf:  # also false for NaN, which would never come due
            raise ValueError(f"delay must be a finite number >= 0, got {delay!r}")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, seq: int | None = None) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        This is the one way to wait for one deadline; :meth:`cancel` the
        returned event to withdraw it.
        """
        if not self.now <= time < math.inf:  # also false for NaN, which would never come due
            raise ValueError(f"cannot schedule at {time!r}: need a finite time >= now {self.now!r}")
        return self._queue.push(time, callback, args, seq)

    def reserve(self, n: int) -> int:
        """Hold the sequence numbers of ``n`` (>= 1) events scheduled now; return the first (for ``seq=``)."""
        return self._queue.reserve(n)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event."""
        self._queue.cancel(event)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a process on the next event-loop step."""
        proc = Process(self, generator, name=name)
        self.schedule(0.0, proc._advance, None, None)
        return proc

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the single earliest event.  Return False if queue empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise RuntimeError("event queue produced an event in the past")
        self.now, self.seq = event.time, event.seq
        event.callback(*event.args)
        self._raise_pending()
        return True

    def step_batch(self) -> int:
        """Drain every event sharing the earliest timestamp at once.

        Returns the number of events fired (0 when the queue is empty).
        Firing order within the batch is identical to repeated :meth:`step`
        calls; events cancelled by an earlier callback of the same batch
        are skipped.  Events that a callback schedules at the current
        timestamp land in the *next* batch, which preserves one-at-a-time
        ordering.  A batch of one event — most of them — fires without
        building a batch list.
        """
        queue = self._queue
        heap = queue._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)[2].popped = True
        if not heap:
            return 0
        time, self.seq, event = heappop(heap)
        event.popped = True
        if time < self.now:
            raise RuntimeError("event queue produced an event in the past")
        self.now = time
        if not heap or heap[0][0] != time:
            queue._live -= 1
            event.callback(*event.args)
            if self._pending_error is not None:
                self._raise_pending()
            return 1
        batch = [event]
        while heap and heap[0][0] == time:
            event = heappop(heap)[2]
            event.popped = True
            if not event.cancelled:
                batch.append(event)
        queue._live -= len(batch)
        fired = 0
        for event in batch:
            if event.cancelled:
                continue
            self.seq = event.seq
            event.callback(*event.args)
            fired += 1
        self._raise_pending()
        return fired

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        Returns the clock value when the loop stops.  With ``until`` set,
        the clock is advanced to exactly ``until`` if the queue drains (or
        only holds later events), mirroring SimPy semantics so callers can
        chain ``run`` segments.

        The loop drains same-timestamp events in batches
        (:meth:`step_batch`); firing order is the one repeated
        :meth:`step` calls produce.
        """
        if until is not None and not self.now <= until < math.inf:  # also false for NaN
            raise ValueError(f"until must be a finite time >= now {self.now!r}, got {until!r}")
        queue = self._queue
        while True:
            next_time = queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            self.step_batch()
        if until is not None:
            self.now, self.seq = max(self.now, until), math.inf
        return self.now

    def run_until(self, predicate: Callable[[], bool], max_time: float | None = None) -> float:
        """Step until ``predicate()`` is true; optionally bound by time.

        Raises ``TimeoutError`` if ``max_time`` is exceeded or the queue
        drains before the predicate holds.  The predicate is evaluated at
        :meth:`step_batch` boundaries, never between events that were
        queued for the same timestamp together.  ``max_time=inf`` is no
        bound; NaN is refused rather than read as one.
        """
        if max_time is not None and math.isnan(max_time):
            raise ValueError(f"max_time must be a time or None, got {max_time!r}")
        while not predicate():
            next_time = self._queue.peek_time()
            if next_time is None:
                raise TimeoutError("event queue drained before predicate became true")
            if max_time is not None and next_time > max_time:
                raise TimeoutError(f"predicate still false at max_time={max_time!r}")
            self.step_batch()
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _report_orphan_failure(self, name: str, error: BaseException) -> None:
        """End the run after this batch: an unawaited process or callback loop ``name`` failed."""
        wrapped = ProcessError(f"process {name!r} failed with {error!r}")
        wrapped.__cause__ = error
        self._pending_error = wrapped

    def _raise_pending(self) -> None:
        if self._pending_error is not None:
            error, self._pending_error = self._pending_error, None
            raise error
