"""Task and platform monitoring — the GUI's data source.

The paper's users "monitor various computational metrics, edge device
performance, and updates to cloud services throughout the task execution
process via the GUI" (§III-C).  The GUI itself is presentation; this
module captures everything it would show as a queryable event log plus
counters.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.simkernel import Simulator


@dataclass
class MonitorEvent:
    """One timestamped platform event."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)


class Monitor:
    """Chronological event log with per-kind counters and summaries.

    Events are indexed by kind as they arrive, so :meth:`of_kind` reads
    one bucket instead of rescanning the whole log.  Live consumers (the
    alarm engine) :meth:`subscribe`; :meth:`of_kind` is for after-the-run
    readers such as the trace assembler.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.events: list[MonitorEvent] = []
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

    def of_kind(self, kind: str) -> tuple[MonitorEvent, ...]:
        """All events of one kind logged so far, in order."""
        return tuple(self._by_kind.get(kind, ()))

    def summary(self) -> dict[str, int]:
        """Event counts by kind, in order of each kind's first event."""
        return {kind: len(events) for kind, events in self._by_kind.items()}
