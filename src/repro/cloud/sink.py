"""Outcome sinks: the cloud-side ingestion surface of the compute tiers.

SimDC's cloud design treats aggregation as buffer-and-fold over whole
rounds (§VI-C), and the delivery API mirrors that: an :class:`OutcomeSink`
receives segments of :class:`~repro.deviceflow.messages.MessageBlock`
blocks (``accept_block``) — a whole plan's round for direct dispatch, one
completion wave at a time when the task is shaped by DeviceFlow, a block of
one row for a benchmarking phone, one row of a channel's copy of a block for
an upload.  :class:`CloudIngestSink` implements the cloud path — messaging
and aggregation — for any of them: DeviceFlow shelves the segment as handed,
the fold gathers its rows once, and the block is the single source of the
task id.  A block carries its update arrays inline, so there is no storage
hop to model (see :mod:`repro.deviceflow.messages`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.cloud.aggregation import AggregationService
from repro.deviceflow.controller import DeviceFlow
from repro.deviceflow.messages import MessageBlock, Segment
from repro.simkernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.tracing import Tracer


@runtime_checkable
class OutcomeSink(Protocol):
    """Receives device-round results from the execution tiers.

    The tiers deliver through :meth:`accept_block`, one segment a call:
    a computing plan's whole round (the :class:`MessageBlock` itself),
    fired at its last completion time; one completion wave of it (a
    :class:`~repro.deviceflow.messages.Segment`: the plan block and the
    wave's rows), fired at the wave's time; or the one-row block of a
    benchmarking phone.  A channel delivers an upload as one row of its
    copy of the plan block, whose time column holds the arrivals.

    One optional class/instance attribute picks the granularity for
    computing plans: ``prefers_waves`` (default ``False``; ``True`` asks
    for one block per wave instead of one per plan — what a sink feeding
    DeviceFlow mid-round needs, since traffic shaping must see arrivals
    when they happen).
    """

    def accept_block(self, block: Segment) -> None:
        """Ingest a plan's round, or a segment of it."""
        ...  # pragma: no cover - protocol


class CloudIngestSink:
    """The production sink: DeviceFlow/aggregation ingestion.

    A delivery (:meth:`accept_block`) is one ``deviceflow.submit_block``
    of the segment as handed, or gate, then one ``service.receive_block``
    of the block its rows gather into (of its surviving rows, when the
    gate dropped some) —
    with the global model bit-identical however a round's rows were cut
    into blocks, by FedAvg partition invariance.

    Parameters
    ----------
    sim / service:
        Cloud plumbing; the owning task is whatever the blocks say.
    deviceflow:
        When set, outcomes are submitted to DeviceFlow instead of
        delivered directly, and :meth:`flow_receive` is the endpoint to
        register as the task's DeviceFlow downstream.  Traffic shaping
        samples arrival times mid-round, so a flow-connected sink asks
        the tiers for one block per completion wave (``prefers_waves``)
        rather than one per plan.
    dedup:
        Arm the idempotent-ingestion table: every ``(device, round)``
        upload folds exactly once, duplicated/retried deliveries are
        counted in ``duplicate_drops`` and discarded.  Armed whenever a
        lossy transport channel fronts the sink.
    tracer:
        When set, every row the gate drops is recorded as an ingest drop
        (the task runner records the blocks themselves, as the tiers hand
        them over).

    When neither dedup nor a round deadline is armed, every ingestion
    path is byte-for-byte the ungated fast path — the gate costs nothing
    unless the transport layer is in play.
    """

    def __init__(
        self,
        sim: Simulator,
        service: AggregationService,
        deviceflow: DeviceFlow | None = None,
        dedup: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.service = service
        self.deviceflow = deviceflow
        self.prefers_waves = deviceflow is not None
        self.dedup = bool(dedup)
        self.tracer = tracer
        #: Uploads admitted / dropped by the ingestion gate.
        self.delivered = 0
        self.duplicate_drops = 0
        self.late_drops = 0
        self._seen: dict[int, set[str]] = {}  # round -> devices whose upload folded
        self._deadlines: dict[int, float] = {}
        self._guarded = self.dedup

    # ------------------------------------------------------------------
    def begin_round(self, round_index: int, deadline: float | None = None) -> None:
        """Arm the ingestion gate for one round.

        ``deadline`` is an absolute simulated time: rows finishing
        (arriving, for DeviceFlow chunks) at or after it are dropped as
        late instead of folded.
        """
        if deadline is not None:
            self._deadlines[round_index] = float(deadline)
            self._guarded = True

    def _admit(self, block: MessageBlock, when: np.ndarray | float) -> MessageBlock | None:
        """Gate a block's rows: the block of the survivors, or ``None`` when none survive.

        ``when`` holds the rows' arrival times: the per-row completion
        times of a direct block, or the one instant (``sim.now``) a
        DeviceFlow delivery chunk arrives at — so a chunk's late check is
        a single comparison.  Dedup runs per row, in block order, and only
        when armed.  A block whose every row is admitted is returned as it
        came.
        """
        n = block.rows
        device_ids, round_index = block.device_ids, block.round_index
        deadline = self._deadlines.get(round_index)
        dropped: dict[int, str] = {}  # row -> reason
        if deadline is not None:
            if isinstance(when, float):
                late = range(n) if when >= deadline else ()
            else:
                late = np.flatnonzero(when >= deadline).tolist()
            dropped = dict.fromkeys(late, "late")
        if self.dedup:
            seen = self._seen.get(round_index)
            if seen is None:
                seen = self._seen[round_index] = set()
            if not dropped and len(fresh := set(device_ids)) == n and seen.isdisjoint(fresh):
                seen |= fresh  # every row is a first upload: no per-row pass
            else:
                for position, device_id in enumerate(device_ids):
                    if position not in dropped:
                        if device_id in seen:
                            dropped[position] = "duplicate"
                        else:
                            seen.add(device_id)
        self.delivered += n - len(dropped)
        if not dropped:
            return block
        keep = np.ones(n, dtype=bool)
        for position in sorted(dropped):
            reason = dropped[position]
            keep[position] = False
            if reason == "late":
                self.late_drops += 1
            else:
                self.duplicate_drops += 1
            if self.tracer is not None:
                time = when if isinstance(when, float) else float(when[position])
                self.tracer.record_ingest_drop(block.task_id, device_ids[position], round_index, time, reason)
        return block.compress(keep) if len(dropped) < n else None

    # ------------------------------------------------------------------
    def accept_block(self, block: Segment) -> None:
        """Segment ingestion: one submit of the segment, or one fold of its rows.

        ``block`` is a plan's whole round (direct tasks), one completion
        wave of it delivered at the wave's time (tasks shaped by
        DeviceFlow), or a single upload (a benchmarking phone; a channel
        delivery, whose time column is its arrival).
        """
        if not block.rows:
            return
        # Flow-connected sinks gate at dispatcher delivery instead
        # (:meth:`flow_receive`): a submission is not an ingestion yet.
        if self.deviceflow is not None:
            self.deviceflow.submit_block(block)
            return
        block = block.gather()
        if self._guarded:
            block = self._admit(block, block.finished_at)
            if block is None:
                return
        self.service.receive_block(block)

    # ------------------------------------------------------------------
    def flow_receive(self, segment: MessageBlock) -> None:
        """DeviceFlow downstream endpoint with the ingestion gate applied.

        Receives what the dispatcher delivers: one :class:`MessageBlock`
        per coalesced run of a chunk's rows.  Flow-dispatched traffic
        reaches the cloud at dispatcher delivery time, so the late/duplicate
        check runs against ``sim.now`` here rather than at outcome
        production — once for a whole chunk, whose rows all arrive at this
        instant.
        """
        if self._guarded:
            segment = self._admit(segment, self.sim.now)
            if segment is None:
                return
        self.service.receive_block(segment)
