"""The Dispatcher: releases shelved messages downstream under a strategy.

"Upon receiving these messages, DeviceFlow activates the Dispatcher module
which handles the message dispatching.  The Dispatcher module first
retrieves and parses the corresponding strategy from the Strategy module,
then extracts the pending messages from the Shelf module and dispatches
them to the cloud services according to the predefined strategy" (§V-A).

Transmission is single-threaded and rate-limited (the paper's example
capacity: 700 messages per second), so a burst dispatched "at" one time
point reaches the cloud spread over the following instants — exactly the
effect visible in Fig. 10(b).

Conventions (what makes block traffic equal message-by-message traffic)
-----------------------------------------------------------------------
The shelf and the send queue hold *segments* — a parent
:class:`~repro.deviceflow.messages.MessageBlock` plus the rows they stand
for (:class:`~repro.deviceflow.messages.Segment`) — and every operation
below is defined on rows, so a block of ``n`` rows behaves exactly like
``n`` one-row blocks submitted back to back.  The per-message
semantics are kept executable in ``tests/reference/deviceflow_reference.py``
and a differential test holds this module to them.

* **Wave-atomic arrival.**  A strategy that reacts to arrivals sees the
  shelf once after a submitted segment: FIFO dispatch groups depend only
  on shelf order and the strategy's own state, so reacting once after
  ``n`` rows selects the groups reacting after each row would, and a
  chunk's membership is fixed when the sender *starts* it, a later kernel
  event either way.  A rule-based strategy never reacts, so its rows may
  be submitted ahead, dated with the key of the event that would have
  delivered each; the shelf lands them, in key order, when it is read.
* **Draw order.**  Dropout consumes the dispatcher's generator in FIFO
  row order: per dispatch group, first one ``rng.choice`` over the
  group's row indices (``discard_count``), then one uniform per
  remaining row (``failure_prob``).  ``Generator.random(n)`` equals
  ``n`` successive single draws, so a burst that crosses ``k``
  thresholds draws once for the concatenated rows and is enqueued once
  (:meth:`Dispatcher.dispatch` with ``group_sizes``).  Counting draws
  nothing.  The dispatcher logs one entry per call — the time, the group
  sizes and the survivor mask — and ``dispatch_log`` builds the ``k``
  ``(time, survivors)`` rows from it when read: each group's survivors
  are differences of the mask's prefix sums.
* **Delivery.**  Landing, taking and dropout narrow only a segment's index;
  the downstream endpoint gets one ``MessageBlock`` per run of joinable rows
  of a delivered chunk, in FIFO order, that
  :meth:`~repro.deviceflow.messages.MessageBlock.coalesce` gathered: one
  index per column for rows of one parent, a join only across parents.
* **Transmission.**  The sender is a chain of kernel callbacks, one event
  per chunk, woken one event after the enqueue that found it idle.  The
  chunk size (``capacity * CHUNK_SECONDS`` rows) is fixed at that wake-up
  for the whole busy period; the rate is read per chunk, so a capacity
  change between enqueue and wake-up resizes the chunks, and one
  mid-burst only retimes them.
* **Settling.**  Everything received is delivered or dropped (the
  controller's ``drained``) only once the sender is idle, so the optional
  ``settle`` callback is called exactly where that can newly hold: when the
  sender goes idle, when a dispatch enqueues nothing while it is idle, and
  when :meth:`~repro.deviceflow.controller.DeviceFlow.discard_shelved`
  empties the shelf.  It costs no kernel event.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import accumulate, pairwise, repeat
from typing import TYPE_CHECKING

import numpy as np

from repro.checks import check_positive
from repro.deviceflow.messages import MessageBlock, Segment, select
from repro.deviceflow.shelf import SegmentQueue, Shelf
from repro.simkernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deviceflow.strategy import DispatchStrategy


class Dispatcher:
    """Executes one task's dispatch strategy against its shelf.

    Parameters
    ----------
    sim:
        Shared simulator.
    shelf:
        The task's message buffer.
    strategy:
        User-defined dispatch behaviour.
    downstream:
        The cloud service endpoint, called with a :class:`MessageBlock`
        per coalesced run of a delivered chunk's rows.
    capacity_per_second:
        Single-threaded transmission capacity.
    rng:
        Seeded generator for dropout draws.
    """

    #: Transmission sub-chunk period: messages inside one chunk share an
    #: arrival timestamp, keeping event counts manageable at scale.
    CHUNK_SECONDS = 0.1

    def __init__(
        self,
        sim: Simulator,
        shelf: Shelf,
        strategy: DispatchStrategy,
        downstream: Callable[[MessageBlock], None],
        capacity_per_second: float,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.shelf = shelf
        self.strategy = strategy
        self.downstream = downstream
        self.capacity_per_second = check_positive("capacity_per_second", capacity_per_second)
        self.rng = rng
        # Counters and logs for monitoring / figure regeneration.
        self.dispatched = 0
        self.delivered = 0
        self.dropped_failure = 0
        self.dropped_discard = 0
        #: One entry per dispatch that sent anything: (time, survivors, group sizes or None, survivor mask or None).
        self._dispatches: list[tuple[float, int, tuple[int, ...] | None, np.ndarray | None]] = []
        self.delivery_log: list[tuple[float, int]] = []
        self._send_queue = SegmentQueue()
        #: True while the sender has nothing in flight.
        self.idle = True
        #: Called where the flow can newly be drained ("Settling"); None when nobody waits.
        self.settle: Callable[[], None] | None = None
        strategy.bind(self)

    # ------------------------------------------------------------------
    # controller-facing lifecycle
    # ------------------------------------------------------------------
    def round_started(self, round_index: int) -> None:
        """The task opened a new collaboration round."""
        self.strategy.on_round_start(self, round_index)

    def round_completed(self, round_index: int) -> None:
        """The task's round finished computing."""
        self.strategy.on_round_complete(self, round_index)

    # ------------------------------------------------------------------
    # strategy-facing primitives
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    def shelf_size(self) -> int:
        """Messages currently buffered."""
        return len(self.shelf)

    def take(self, count: int) -> list[Segment]:
        """Pull up to ``count`` oldest messages off the shelf, as segments."""
        return self.shelf.take(count)

    def take_all(self) -> list[Segment]:
        """Drain the shelf."""
        return self.shelf.take_all()

    def schedule_at(self, time: float, callback: Callable[..., None], *args: object) -> None:
        """Run ``callback(*args)`` at an absolute simulated time (now, if it has passed)."""
        self.sim.schedule_at(max(time, self.sim.now), callback, *args)

    @property
    def dispatch_log(self) -> list[tuple[float, int]]:
        """``(time, messages sent)`` per dispatch group that sent any, built from the per-call log."""
        log: list[tuple[float, int]] = []
        for now, sent, groups, keep in self._dispatches:
            if groups is None:
                log.append((now, sent))
                continue
            counts = groups
            if keep is not None:
                kept = list(accumulate(keep.tolist(), initial=0))
                counts = [kept[hi] - kept[lo] for lo, hi in pairwise(accumulate(groups, initial=0))]
            log.extend(zip(repeat(now), filter(None, counts)))
        return log

    def dispatch(
        self,
        batch: list[Segment],
        failure_prob: float = 0.0,
        discard_count: int = 0,
        group_sizes: list[int] | None = None,
    ) -> tuple[int, int]:
        """Apply dropout and enqueue survivors for transmission.

        Returns ``(sent, dropped)`` in messages.  Dropout semantics
        follow §V-B: a uniformly random selection of ``discard_count``
        messages is discarded, then each remaining message independently
        fails with ``failure_prob``.

        ``group_sizes`` (ints >= 1) splits the batch (in FIFO order) into
        consecutive dispatch groups that share this instant: each group is
        logged as its own ``dispatch_log`` row, exactly as if it had been
        dispatched by its own call, while the failure draws and the
        enqueue happen once for all of them.
        """
        if not 0.0 <= failure_prob <= 1.0:
            raise ValueError("failure_prob must be in [0, 1]")
        if discard_count < 0:
            raise ValueError("discard_count must be >= 0")
        if not batch:
            return (0, 0)
        total = sent = batch[0].rows if len(batch) == 1 else sum(segment.rows for segment in batch)
        groups = None
        if group_sizes is not None:
            groups = tuple(group_sizes)  # the log's snapshot
            covered = sum(groups)  # not an int when an entry is not one
            if not groups or type(covered) is not int or min(groups) < 1:
                raise ValueError(f"group_sizes must be ints >= 1, got {group_sizes!r}")
            if covered != total:
                raise ValueError(f"group_sizes cover {covered} of the batch's {total} messages")
            if discard_count > 0:
                raise ValueError("discard_count applies to one dispatch group at a time")
            if len(groups) == 1:
                groups = None
        keep: np.ndarray | None = None  # per-row survivor mask; None = all survive
        if discard_count > 0:
            sent = max(0, total - discard_count)
            keep = np.zeros(total, dtype=bool)
            keep[self.rng.choice(total, size=sent, replace=False)] = True
            self.dropped_discard += total - sent
        if failure_prob > 0.0 and sent:
            delivered = self.rng.random(sent) >= failure_prob
            if keep is None:
                keep = delivered
            else:
                keep[keep] = delivered
        if keep is not None:
            drawn = sent
            batch, sent = self._select(batch, keep)
            self.dropped_failure += drawn - sent
        if sent:
            self._dispatches.append((self.sim.now, sent, groups, keep))
            self.dispatched += sent
            self._enqueue(batch, sent)
        elif self.idle and self.settle is not None:
            self.settle()
        return (sent, total - sent)

    @staticmethod
    def _select(batch: list[Segment], keep: np.ndarray) -> tuple[list[Segment], int]:
        """The segments of ``batch`` narrowed to the rows ``keep`` marks, and how many rows that is."""
        if len(batch) == 1:
            (segment,) = batch
            count = int(np.count_nonzero(keep))
            return [segment if count == segment.rows else select(segment, keep)] if count else [], count
        kept = list(accumulate(keep.tolist(), initial=0))  # survivors among the first i rows
        survivors: list[Segment] = []
        start = 0
        for segment in batch:
            end = start + segment.rows
            count = kept[end] - kept[start]
            if count == segment.rows:
                survivors.append(segment)
            elif count:
                survivors.append(select(segment, keep[start:end]))
            start = end
        return survivors, kept[-1]

    # ------------------------------------------------------------------
    # rate-limited transmission
    # ------------------------------------------------------------------
    def _enqueue(self, segments: list[Segment], rows: int) -> None:
        self._send_queue.extend(segments, rows)
        if self.idle:
            self.idle = False
            self.sim.schedule(0.0, self._send_next, 0)

    def _send_next(self, chunk_rows: int) -> None:
        """Start the next chunk, or go idle; ``chunk_rows == 0`` is the wake-up ("Transmission").

        A chunk's membership is decided when its transmission *starts*, so
        messages dispatched while a chunk is in flight join the stream
        right behind it.  A failure aborts the run as a failing process would.
        """
        try:
            chunk_rows = chunk_rows or max(1, int(round(self.capacity_per_second * self.CHUNK_SECONDS)))
            rows = min(chunk_rows, len(self._send_queue))
            if rows:
                chunk = self._send_queue.take(rows)
                self.sim.schedule(rows / self.capacity_per_second, self._chunk_sent, chunk, rows, chunk_rows)
            else:
                self.idle = True
                if self.settle is not None:
                    self.settle()
        except Exception as exc:
            self.sim._report_orphan_failure(f"dispatcher.{self.shelf.task_id}.sender", exc)

    def _chunk_sent(self, chunk: list[Segment], rows: int, chunk_rows: int) -> None:
        """A chunk finished transmitting: hand it downstream, then send the next."""
        try:
            for segment in MessageBlock.coalesce(chunk):
                self.downstream(segment)
            self.delivered += rows
            self.delivery_log.append((self.sim.now, rows))
        except Exception as exc:
            self.sim._report_orphan_failure(f"dispatcher.{self.shelf.task_id}.sender", exc)
        else:
            self._send_next(chunk_rows)
