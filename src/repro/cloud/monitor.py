"""Task and platform monitoring — the GUI's data source.

The paper's users "monitor various computational metrics, edge device
performance, and updates to cloud services throughout the task execution
process via the GUI" (§III-C).  The GUI itself is presentation; this
module captures everything it would show as a queryable event log plus
counters.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.simkernel import Simulator


@dataclass
class MonitorEvent:
    """One timestamped platform event."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)


class EventsView(Sequence):
    """A read-only, zero-copy view over one kind's event bucket.

    What :meth:`Monitor.of_kind` returns — hot in KPI extraction and in
    live alarm evaluation, where the same kinds are queried per event
    over logs with hundreds of thousands of entries.  Indexing, slicing,
    iteration and equality against any sequence work, mutation does not.
    The view is *live* — events logged after it was taken are visible
    through it.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Sequence[MonitorEvent]) -> None:
        self._events = events

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # A slice of a view is a view: callers chain slices and the
            # trace assembler's time-bounded helpers without paying a
            # copy (the sliced snapshot is immutable, so the live-bucket
            # caveat above does not extend to it).
            return EventsView(self._events[index])
        return self._events[index]

    def __iter__(self) -> Iterator[MonitorEvent]:
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventsView):
            other = other._events
        if isinstance(other, (list, tuple)):
            return len(self._events) == len(other) and all(
                a == b for a, b in zip(self._events, other)
            )
        return NotImplemented

    def __hash__(self) -> None:  # pragma: no cover - mutable view
        raise TypeError("EventsView is unhashable (it reflects a live bucket)")


_EMPTY: tuple[MonitorEvent, ...] = ()


class Monitor:
    """Chronological event log with per-kind counters and summaries.

    Events are indexed by kind as they arrive, so :meth:`of_kind` is an
    O(1) view of its bucket instead of a rescan of the whole log —
    scenario KPI extraction queries a handful of kinds out of logs with
    hundreds of thousands of entries.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.events: list[MonitorEvent] = []
        self.counters: Counter = Counter()
        self._by_kind: dict[str, list[MonitorEvent]] = {}
        self._subscribers: list[Callable[[MonitorEvent], None]] = []

    def subscribe(self, callback: Callable[[MonitorEvent], None]) -> Callable:
        """Register a streaming consumer called on every logged event.

        Subscribers run synchronously inside :meth:`log`, in subscription
        order, *after* the event is indexed — a subscriber that logs
        further events (the alarm engine does) re-enters :meth:`log`
        safely, and those nested events are dispatched too.  A subscriber
        that raises is contained: it is detached, one ``subscriber_failed``
        event (``event_kind``, ``error=repr(exc)``) is logged for the
        subscribers that remain, and the platform code that logged the
        event carries on.  Returns ``callback`` (handy for tests).
        """
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[MonitorEvent], None]) -> None:
        """Detach a previously subscribed consumer."""
        self._subscribers.remove(callback)

    def log(self, kind: str, **fields: Any) -> MonitorEvent:
        """Record an event at the current simulated time."""
        if not kind:
            raise ValueError("event kind must be non-empty")
        event = MonitorEvent(time=self.sim.now, kind=kind, fields=fields)
        self.events.append(event)
        self._by_kind.setdefault(kind, []).append(event)
        self.counters[kind] += 1
        # Dispatch over a snapshot: a subscriber that subscribes or
        # unsubscribes while being dispatched (tear-down on a terminal
        # alarm, say) must not shift the live list under this loop.
        # Late subscribers see the *next* event; a same-dispatch
        # unsubscribee still receives this one.
        for subscriber in tuple(self._subscribers):
            try:
                subscriber(event)
            except Exception as error:
                # A failing consumer degrades itself, never the platform
                # code that happened to log: detach it and say why.
                if subscriber in self._subscribers:
                    self.unsubscribe(subscriber)
                self.log("subscriber_failed", event_kind=kind, error=repr(error))
        return event

    def of_kind(self, kind: str) -> Sequence[MonitorEvent]:
        """All events of one kind, in order, as a read-only live view.

        The view is zero-copy; callers that need an independent
        snapshot take ``list(monitor.of_kind(kind))`` explicitly.
        """
        return EventsView(self._by_kind.get(kind, _EMPTY))

    def count_kind(self, kind: str) -> int:
        """How many events of one kind were logged — O(1), no view built."""
        return self.counters.get(kind, 0)

    def summary(self) -> dict[str, int]:
        """Event counts by kind."""
        return dict(self.counters)
