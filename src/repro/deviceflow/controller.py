"""The DeviceFlow facade: routing by task id to Shelves, Dispatchers, Strategies.

What comes in (:meth:`DeviceFlow.submit_block`) is the
:class:`~repro.deviceflow.messages.MessageBlock` a tier built — or a
:class:`~repro.deviceflow.messages.Segment` of it — and what goes out to
the registered downstream endpoint is blocks gathered from the rows of the
same parents: the controller shelves, drops and coalesces rows, and writes
to no column.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.checks import check_positive
from repro.deviceflow.dispatcher import Dispatcher
from repro.deviceflow.messages import Arrivals, MessageBlock, Segment
from repro.deviceflow.shelf import Shelf
from repro.deviceflow.strategy import DispatchStrategy
from repro.simkernel import RandomStreams, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.tracing import Tracer


@dataclass
class TaskFlowStats:
    """Monitoring snapshot of one task's traffic through DeviceFlow."""

    task_id: str
    received: int
    shelved: int
    dispatched: int
    delivered: int
    dropped_failure: int
    dropped_discard: int

    @property
    def dropped(self) -> int:
        """All dropout losses."""
        return self.dropped_failure + self.dropped_discard


class DeviceFlow:
    """The device behaviour traffic controller.

    Tasks register a strategy plus a downstream endpoint; the compute
    tiers submit messages a segment at a time (:meth:`submit_block`: a
    completion wave, or one upload as a one-row segment); the platform
    signals round boundaries.  Every
    task gets an isolated shelf + dispatcher pair, so "the dispatch
    processes of different tasks remain isolated and do not interfere".

    Parameters
    ----------
    sim:
        Shared simulator.
    streams:
        Deterministic random streams (dropout draws).
    capacity_per_second:
        Single-threaded transmission capacity of each dispatcher (the
        paper's example: 700 messages per second).
    tracer:
        Optional :class:`~repro.observability.tracing.Tracer`: shelve
        times are recorded at submission and delivery times by wrapping
        each task's downstream endpoint — one segment reference per
        submission / delivered segment, expanded to devices when the
        trace is assembled.  Recording is append-only and draws nothing,
        so traced flows stay byte-identical.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        capacity_per_second: float = 700.0,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.streams = streams
        self.capacity_per_second = check_positive("capacity_per_second", capacity_per_second)
        self.tracer = tracer
        self._dispatchers: dict[str, Dispatcher] = {}
        self._capacity_scale = 1.0

    # ------------------------------------------------------------------
    # task registration
    # ------------------------------------------------------------------
    def register_task(
        self,
        task_id: str,
        strategy: DispatchStrategy,
        downstream: Callable[[MessageBlock], None],
    ) -> Dispatcher:
        """Create the task's shelf + dispatcher; returns the dispatcher.

        ``downstream`` is called with every delivered segment: a
        :class:`MessageBlock` of rows that arrived by :meth:`submit_block`.
        """
        if task_id in self._dispatchers:
            raise ValueError(f"task {task_id!r} already registered with DeviceFlow")
        if self.tracer is not None:
            tracer, sim, inner = self.tracer, self.sim, downstream

            def traced_downstream(segment: MessageBlock) -> None:
                tracer.record_flow_delivery(segment, sim.now)
                inner(segment)

            downstream = traced_downstream
        shelf = Shelf(task_id, self.sim)
        dispatcher = Dispatcher(
            self.sim,
            shelf,
            strategy,
            downstream,
            capacity_per_second=self.capacity_per_second * self._capacity_scale,
            rng=self.streams.get(f"deviceflow.{task_id}"),
        )
        self._dispatchers[task_id] = dispatcher
        return dispatcher

    def unregister_task(self, task_id: str) -> None:
        """Detach a finished task (its shelf must be empty)."""
        dispatcher = self._require(task_id)
        if len(dispatcher.shelf) > 0:
            raise RuntimeError(
                f"task {task_id!r} still has {len(dispatcher.shelf)} shelved messages"
            )
        del self._dispatchers[task_id]

    def force_unregister(self, task_id: str) -> int:
        """Detach a crashed task, discarding shelved messages.

        Returns the number of messages discarded (those landed by now; rows
        still on their way are dropped with the shelf).  Already-scheduled
        dispatch callbacks become no-ops (the shelf is empty).
        """
        shelf = self._require(task_id).shelf
        discarded = len(shelf)
        shelf.take_all()
        del self._dispatchers[task_id]
        return discarded

    def discard_shelved(self, task_id: str) -> int:
        """Drop a task's shelved messages (deadline-based round closure).

        The task stays registered; the discarded messages count into the
        dispatcher's ``dropped_discard`` statistic (they never reach the
        cloud).  Returns the number of messages discarded.
        """
        dispatcher = self._require(task_id)
        discarded = len(dispatcher.shelf)
        dispatcher.shelf.take_all()
        dispatcher.dropped_discard += discarded
        return discarded

    def dispatcher_for(self, task_id: str) -> Dispatcher:
        """The task's dispatcher (for inspection / monitoring)."""
        return self._require(task_id)

    def defers_arrivals(self, task_id: str) -> bool:
        """Whether the task's strategy never reacts to an arrival (rule-based, §V-B): its shelf may take rows ahead."""
        dispatcher = self._dispatchers.get(task_id)
        return dispatcher is not None and type(dispatcher.strategy).on_message is DispatchStrategy.on_message

    @property
    def task_ids(self) -> list[str]:
        """Registered task ids."""
        return sorted(self._dispatchers)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def submit_block(self, block: Segment) -> int:
        """Accept a completion wave, an upload, or a wave's uploads ahead of arrival, as one segment.

        Exactly the segment's rows submitted back to back at this instant (rows ahead: each at its
        arrival) — same shelf order, dispatch groups, dropout draws and delivery times (see the
        conventions in :mod:`repro.deviceflow.dispatcher`) — with one shelf append and one strategy
        notification; the downstream endpoint receives blocks gathered per delivered run.  Returns
        the number of messages shelved.
        """
        # The Sorter of §V-A: the task id picks the shelf (the task's dispatcher owns it).
        task_id = block.task_id
        dispatcher = self._dispatchers.get(task_id)
        if dispatcher is None:
            raise KeyError(f"task {task_id!r} is not registered with DeviceFlow")
        if self.tracer is not None:  # rows handed over ahead are shelved at their arrivals
            times = block.parent.finished_at[block.index].tolist() if type(block) is Arrivals else self.sim.now
            self.tracer.record_flow_submit(block, times)
        rows = dispatcher.shelf.store(block)
        if rows:
            # Strategies are notified once per arrival, whatever its row count
            # (see "Wave-atomic arrival" in repro.deviceflow.dispatcher).
            dispatcher.strategy.on_message(dispatcher)
        return rows

    # ------------------------------------------------------------------
    # control plane (round lifecycle from the platform)
    # ------------------------------------------------------------------
    def set_capacity_scale(self, scale: float) -> float:
        """Rescale transmission capacity for all current and future tasks.

        Models network-tier degradation windows: a scenario's fault plan
        drops the scale below 1.0 for a window and restores it afterwards.
        Every registered dispatcher's ``capacity_per_second`` is reset to
        ``base * scale`` (never accumulated, so repeated calls cannot
        drift), and dispatchers registered while the window is open start
        degraded.  Returns the previous scale.
        """
        previous = self._capacity_scale
        self._capacity_scale = check_positive("scale", scale)
        for dispatcher in self._dispatchers.values():
            dispatcher.capacity_per_second = self.capacity_per_second * self._capacity_scale
        return previous

    @property
    def capacity_scale(self) -> float:
        """The currently applied degradation scale (1.0 = healthy)."""
        return self._capacity_scale

    def round_started(self, task_id: str, round_index: int) -> None:
        """Signal that a task's round began computing."""
        self._require(task_id).round_started(round_index)

    def round_completed(self, task_id: str, round_index: int) -> None:
        """Signal that a task's round finished computing."""
        self._require(task_id).round_completed(round_index)

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def stats(self, task_id: str) -> TaskFlowStats:
        """Current traffic counters for one task."""
        dispatcher = self._require(task_id)
        return TaskFlowStats(
            task_id=task_id,
            received=dispatcher.shelf.total_stored,
            shelved=len(dispatcher.shelf),
            dispatched=dispatcher.dispatched,
            delivered=dispatcher.delivered,
            dropped_failure=dispatcher.dropped_failure,
            dropped_discard=dispatcher.dropped_discard,
        )

    def drained(self, task_id: str) -> bool:
        """Nothing shelved, and every message received was delivered or dropped."""
        dispatcher = self._require(task_id)
        settled = dispatcher.delivered + dispatcher.dropped_failure + dispatcher.dropped_discard
        return not len(dispatcher.shelf) and settled >= dispatcher.shelf.total_stored

    def _require(self, task_id: str) -> Dispatcher:
        if task_id not in self._dispatchers:
            raise KeyError(f"task {task_id!r} is not registered with DeviceFlow")
        return self._dispatchers[task_id]
