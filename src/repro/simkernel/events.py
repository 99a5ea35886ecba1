"""Event heap for the simulation kernel.

Events are ordered by ``(time, sequence)``: earlier simulated time first,
then insertion order.  The sequence counter makes ordering fully
deterministic, which in turn makes every SimDC run reproducible for a fixed
seed.

Two hot-path design points:

* Heap entries are plain ``(time, seq, event)`` tuples so sift
  comparisons stay in C (tuple comparison) instead of calling back into a
  Python ``__lt__``.  At the Fig. 8 scales (~10^6 events per round) the
  sift comparisons dominate kernel time otherwise.
* An :class:`Event` stores ``(callback, args)`` instead of a closure, so
  scheduling never allocates a lambda per event.
"""

from __future__ import annotations

from heapq import heappop, heappush
import itertools
from collections.abc import Callable
from typing import Any


class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time / seq:
        Absolute simulated time at which the callback fires; its key's tie-breaker.
    callback / args:
        The callable and the positional arguments it fires with.
    cancelled:
        Lazily-deleted flag; cancelled events stay in the heap but are
        skipped when popped.
    popped:
        Whether the queue has already removed this event from the heap
        (fired, batch-drained, or cleared).  Cancelling a popped event
        marks it skipped but no longer affects the queue's live count.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "popped")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.popped = False

    def cancel(self) -> None:
        """Mark the event so the queue skips it.  Idempotent."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    ``Simulator.step_batch`` drains same-time runs straight off ``_heap``,
    keeping ``popped`` and the live count as :meth:`pop` does.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: Callable[..., Any], args: tuple, seq: int | None = None) -> Event:
        """Insert ``callback(*args)`` to fire at ``time``, under ``seq`` (one :meth:`reserve` took) or the next."""
        if seq is None:
            seq = next(self._counter)
        event = Event(time, seq, callback, args)
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def reserve(self, n: int) -> int:
        """Take the next ``n`` (>= 1) sequence numbers; return the first."""
        first = next(self._counter)
        self._counter = itertools.count(first + n)
        return first

    def pop(self) -> Event | None:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            event.popped = True
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)[2].popped = True
        if not heap:
            return None
        return heap[0][0]

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (lazy deletion).

        Safe on events the queue already removed (fired or batch-drained):
        they are marked cancelled — so an in-flight ``step_batch`` skips
        them — without disturbing the live count.
        """
        if not event.cancelled:
            event.cancel()
            if not event.popped:
                self._live -= 1
