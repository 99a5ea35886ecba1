"""Per-message reference implementation of DeviceFlow.

The shelf, dispatcher, controller and dispatch strategies as they stood
before DeviceFlow went columnar, kept verbatim but for names: one
``Message`` object per device, one ``store`` / ``on_message`` per arrival,
one ``dispatch`` per threshold crossing, a send queue that is a list of
messages.  It defines what the block-carrying implementation in
``repro.deviceflow`` must reproduce exactly — shelf FIFO order, the
threshold cycle, time-point and time-interval ticks, discard-then-failure
dropout and its draw order, and the chunked rate-limited sender — so the
differential test in ``tests/test_deviceflow_controller.py`` compares
``dispatch_log``, ``delivery_log``, delivered order, the counters and the
final random state against it.  Do not optimise it.

Only the kernel (``Simulator`` / ``Signal`` / ``Timeout`` / ``RandomStreams``),
the ``TimePoint`` / ``TaskFlowStats`` records and the pure
``discretize_curve`` function are shared with ``src/``; the per-device
:class:`Message` lives here, and so does the per-tick trapezoid loop
(:func:`segment_areas`) that ``TrafficCurve.segment_areas`` must equal bit
for bit.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.deviceflow.controller import TaskFlowStats
from repro.deviceflow.curves import TrafficCurve
from repro.deviceflow.discretize import DispatchTick, discretize_curve
from repro.deviceflow.strategy import TimePoint
from repro.simkernel import RandomStreams, Simulator, Timeout

_message_counter = itertools.count()


def segment_areas(curve: TrafficCurve, interval_seconds: float, n_ticks: int) -> np.ndarray:
    """Per-tick AUC of ``curve`` scaled onto the window, one ``np.trapezoid`` per tick."""
    low, width = curve.domain[0], curve.width
    sub = 16
    fine = np.linspace(0.0, interval_seconds, n_ticks * sub + 1)
    values = curve(low + width * fine / interval_seconds)
    segment_area = np.zeros(n_ticks)
    for i in range(n_ticks):
        chunk = slice(i * sub, (i + 1) * sub + 1)
        segment_area[i] = np.trapezoid(values[chunk], fine[chunk])
    return segment_area


@dataclass
class Message:
    """One device-to-cloud notification: a reference into shared storage (§V-A)."""

    task_id: str
    device_id: str
    round_index: int
    payload_ref: str
    size_bytes: int = 0
    created_at: float = 0.0  # simulated time the message entered DeviceFlow
    n_samples: int = 1
    metadata: dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_message_counter))

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")


class ReferenceShelf:
    """One task's FIFO of pending messages."""

    def __init__(self, task_id: str) -> None:
        self.task_id = task_id
        self._messages: deque[Message] = deque()

    def __len__(self) -> int:
        return len(self._messages)

    def store(self, message: Message) -> None:
        if message.task_id != self.task_id:
            raise ValueError(
                f"message for task {message.task_id!r} stored on shelf {self.task_id!r}"
            )
        self._messages.append(message)

    def take(self, count: int) -> list[Message]:
        taken: list[Message] = []
        while self._messages and len(taken) < count:
            taken.append(self._messages.popleft())
        return taken

    def take_all(self) -> list[Message]:
        return self.take(len(self._messages))


class ReferenceDispatcher:
    """Executes one task's strategy against its shelf, message by message."""

    CHUNK_SECONDS = 0.1

    def __init__(
        self,
        sim: Simulator,
        shelf: ReferenceShelf,
        strategy,
        downstream: Callable[[Message], None],
        capacity_per_second: float,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.shelf = shelf
        self.strategy = strategy
        self.downstream = downstream
        self.capacity_per_second = float(capacity_per_second)
        self.rng = rng
        self.dispatched = 0
        self.delivered = 0
        self.dropped_failure = 0
        self.dropped_discard = 0
        self.dispatch_log: list[tuple[float, int]] = []
        self.delivery_log: list[tuple[float, int]] = []
        self._send_queue: list[Message] = []
        self._send_head = 0
        self._sender_busy = False

    @property
    def idle(self) -> bool:
        """The sender has nothing in flight."""
        return not self._sender_busy

    # -- strategy-facing primitives ------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def shelf_size(self) -> int:
        return len(self.shelf)

    def take(self, count: int) -> list[Message]:
        return self.shelf.take(count)

    def take_all(self) -> list[Message]:
        return self.shelf.take_all()

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        self.sim.schedule_at(max(time, self.sim.now), callback)

    def dispatch(
        self, messages: list[Message], failure_prob: float = 0.0, discard_count: int = 0
    ) -> tuple[int, int]:
        if not messages:
            return (0, 0)
        survivors = list(messages)
        if discard_count > 0:
            keep = max(0, len(survivors) - discard_count)
            kept_idx = sorted(self.rng.choice(len(survivors), size=keep, replace=False))
            self.dropped_discard += len(survivors) - keep
            survivors = [survivors[i] for i in kept_idx]
        if failure_prob > 0.0 and survivors:
            mask = self.rng.random(len(survivors)) >= failure_prob
            self.dropped_failure += int((~mask).sum())
            survivors = [m for m, ok in zip(survivors, mask) if ok]
        dropped = len(messages) - len(survivors)
        if survivors:
            self.dispatched += len(survivors)
            self.dispatch_log.append((self.sim.now, len(survivors)))
            self._enqueue(survivors)
        return (len(survivors), dropped)

    # -- rate-limited transmission -------------------------------------
    def _enqueue(self, messages: list[Message]) -> None:
        self._send_queue.extend(messages)
        if not self._sender_busy:
            self._sender_busy = True
            self.sim.process(self._sender(), name=f"reference.{self.shelf.task_id}.sender")

    def _sender(self) -> Generator:
        chunk_capacity = max(1, int(round(self.capacity_per_second * self.CHUNK_SECONDS)))
        while self._send_head < len(self._send_queue):
            head = self._send_head
            chunk = self._send_queue[head : head + chunk_capacity]
            self._send_head = head + len(chunk)
            yield Timeout(len(chunk) / self.capacity_per_second)
            for message in chunk:
                self.downstream(message)
            self.delivered += len(chunk)
            self.delivery_log.append((self.sim.now, len(chunk)))
        self._send_queue.clear()
        self._send_head = 0
        self._sender_busy = False


class ReferenceDeviceFlow:
    """The controller facade: one shelf + dispatcher per task, scalar submits only."""

    def __init__(
        self, sim: Simulator, streams: RandomStreams, capacity_per_second: float = 700.0
    ) -> None:
        self.sim = sim
        self.streams = streams
        self.capacity_per_second = float(capacity_per_second)
        self._dispatchers: dict[str, ReferenceDispatcher] = {}
        self._received: dict[str, int] = {}
        self._capacity_scale = 1.0

    def register_task(
        self, task_id: str, strategy, downstream: Callable[[Message], None]
    ) -> ReferenceDispatcher:
        dispatcher = ReferenceDispatcher(
            self.sim,
            ReferenceShelf(task_id),
            strategy,
            downstream,
            capacity_per_second=self.capacity_per_second * self._capacity_scale,
            rng=self.streams.get(f"deviceflow.{task_id}"),
        )
        self._dispatchers[task_id] = dispatcher
        self._received[task_id] = 0
        return dispatcher

    def dispatcher_for(self, task_id: str) -> ReferenceDispatcher:
        return self._dispatchers[task_id]

    def submit(self, message: Message) -> None:
        dispatcher = self._dispatchers[message.task_id]
        message.created_at = self.sim.now
        dispatcher.shelf.store(message)
        self._received[message.task_id] += 1
        dispatcher.strategy.on_message(dispatcher)

    def discard_shelved(self, task_id: str) -> int:
        dispatcher = self._dispatchers[task_id]
        messages = dispatcher.shelf.take_all()
        dispatcher.dropped_discard += len(messages)
        return len(messages)

    def set_capacity_scale(self, scale: float) -> None:
        self._capacity_scale = float(scale)
        for dispatcher in self._dispatchers.values():
            dispatcher.capacity_per_second = self.capacity_per_second * self._capacity_scale

    def round_started(self, task_id: str, round_index: int) -> None:
        dispatcher = self._dispatchers[task_id]
        dispatcher.strategy.on_round_start(dispatcher, round_index)

    def round_completed(self, task_id: str, round_index: int) -> None:
        dispatcher = self._dispatchers[task_id]
        dispatcher.strategy.on_round_complete(dispatcher, round_index)

    def stats(self, task_id: str) -> TaskFlowStats:
        dispatcher = self._dispatchers[task_id]
        return TaskFlowStats(
            task_id=task_id,
            received=self._received[task_id],
            shelved=len(dispatcher.shelf),
            dispatched=dispatcher.dispatched,
            delivered=dispatcher.delivered,
            dropped_failure=dispatcher.dropped_failure,
            dropped_discard=dispatcher.dropped_discard,
        )


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
class ReferenceStrategy:
    def on_round_start(self, dispatcher: ReferenceDispatcher, round_index: int) -> None:
        pass

    def on_message(self, dispatcher: ReferenceDispatcher) -> None:
        pass

    def on_round_complete(self, dispatcher: ReferenceDispatcher, round_index: int) -> None:
        pass


class ReferenceRealTimeAccumulated(ReferenceStrategy):
    """Threshold-sequence dispatching, re-evaluated after every single message."""

    def __init__(
        self,
        thresholds: Sequence[int] = (1,),
        failure_prob: float = 0.0,
        flush_on_round_complete: bool = True,
    ) -> None:
        self.thresholds = [int(t) for t in thresholds]
        self.failure_prob = float(failure_prob)
        self.flush_on_round_complete = flush_on_round_complete
        self._cycle = 0

    @property
    def current_threshold(self) -> int:
        return self.thresholds[self._cycle % len(self.thresholds)]

    def on_round_start(self, dispatcher: ReferenceDispatcher, round_index: int) -> None:
        self._cycle = 0

    def on_message(self, dispatcher: ReferenceDispatcher) -> None:
        while dispatcher.shelf_size() >= self.current_threshold:
            batch = dispatcher.take(self.current_threshold)
            dispatcher.dispatch(batch, failure_prob=self.failure_prob)
            self._cycle += 1

    def on_round_complete(self, dispatcher: ReferenceDispatcher, round_index: int) -> None:
        if self.flush_on_round_complete and dispatcher.shelf_size() > 0:
            dispatcher.dispatch(dispatcher.take_all(), failure_prob=self.failure_prob)


class ReferenceTimePoints(ReferenceStrategy):
    """Specific time-point dispatching (relative to round end, or absolute)."""

    def __init__(self, points: Sequence[TimePoint], relative: bool = True) -> None:
        self.points = sorted(points, key=lambda p: p.time)
        self.relative = relative

    def on_round_complete(self, dispatcher: ReferenceDispatcher, round_index: int) -> None:
        base = dispatcher.now if self.relative else 0.0
        for point in self.points:

            def fire(p: TimePoint = point) -> None:
                available = dispatcher.shelf_size()
                if available == 0:
                    return
                batch = dispatcher.take(min(p.count, available))
                dispatcher.dispatch(batch, failure_prob=p.failure_prob, discard_count=p.discard_count)

            dispatcher.schedule_at(base + point.time, fire)


class ReferenceTimeInterval(ReferenceStrategy):
    """Specific time-interval dispatching: a rate curve discretised into ticks."""

    def __init__(
        self,
        curve: TrafficCurve,
        interval_seconds: float,
        failure_prob: float = 0.0,
        discard_per_tick: int = 0,
        tick_width: float | None = None,
    ) -> None:
        self.curve = curve
        self.interval_seconds = float(interval_seconds)
        self.failure_prob = float(failure_prob)
        self.discard_per_tick = int(discard_per_tick)
        self.tick_width = tick_width

    def on_round_complete(self, dispatcher: ReferenceDispatcher, round_index: int) -> None:
        total = dispatcher.shelf_size()
        if total == 0:
            return
        ticks = discretize_curve(
            self.curve,
            self.interval_seconds,
            total,
            capacity_per_second=dispatcher.capacity_per_second,
            tick_width=self.tick_width,
        )
        base = dispatcher.now
        for tick in ticks:

            def fire(t: DispatchTick = tick) -> None:
                available = dispatcher.shelf_size()
                if available == 0:
                    return
                batch = dispatcher.take(min(t.count, available))
                dispatcher.dispatch(
                    batch, failure_prob=self.failure_prob, discard_count=self.discard_per_tick
                )

            dispatcher.schedule_at(base + tick.offset, fire)
