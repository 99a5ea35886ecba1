"""Outcome sinks: the cloud-side ingestion surface of the compute tiers.

SimDC's cloud design treats aggregation as buffer-and-fold over whole
rounds (§VI-C), and the delivery API mirrors that: an :class:`OutcomeSink`
receives a columnar block (``accept_block``) — a whole plan's round for
direct dispatch, one completion wave at a time when the task is shaped by
DeviceFlow — or one outcome at a time (``accept``: benchmarking phones,
and uploads a transport channel delivers individually).
:class:`CloudIngestSink` implements the full cloud path — storage,
messaging, aggregation — for both granularities with byte-identical
simulated results.

Scalar → block method map (see README, "Execution model"):

========================  ==============================
per-device (scalar)       per-wave / per-round (block)
========================  ==============================
``sink.accept``           ``sink.accept_block``
``storage.put``           ``storage.put_block``
``Message``               ``MessageBlock``
``deviceflow.submit``     ``deviceflow.submit_block``
``service.receive_message``  ``service.receive_block``
========================  ==============================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.cloud.aggregation import AggregationService
from repro.cloud.storage import ObjectStorage
from repro.deviceflow.controller import DeviceFlow
from repro.deviceflow.messages import Message, MessageBlock, payload_ref
from repro.simkernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    # cluster.rounds imports this module for the protocol, so a runtime
    # import here would be circular.
    from repro.cluster.actor import DeviceRoundOutcome
    from repro.cluster.rounds import ColumnarOutcomes
    from repro.observability.tracing import Tracer


@runtime_checkable
class OutcomeSink(Protocol):
    """Receives device-round results from the execution tiers.

    The tiers deliver through two methods:

    * :meth:`accept_block` — one :class:`ColumnarOutcomes` block: a
      computing plan's whole round, fired once at the block's last
      completion time, or one completion wave of it (a zero-copy row
      view), fired at the wave's time.
    * :meth:`accept` — one :class:`DeviceRoundOutcome`, fired as a
      benchmarking phone finishes training (and what a transport channel
      delivers per surviving upload).

    One optional class/instance attribute picks the block granularity:
    ``prefers_waves`` (default ``False``; ``True`` asks for one block per
    wave instead of one per plan — what a sink feeding DeviceFlow
    mid-round needs, since traffic shaping must see arrivals when they
    happen).
    """

    def accept(self, outcome: DeviceRoundOutcome) -> None:
        """Ingest one device's round result."""
        ...  # pragma: no cover - protocol

    def accept_block(self, block: ColumnarOutcomes) -> None:
        """Ingest a plan's round, or one wave of it, as one columnar block."""
        ...  # pragma: no cover - protocol


class _BlockUpdateView:
    """Lazy per-device view of a block's stacked model updates.

    ``ObjectStorage.put_block`` stores the whole sequence behind one
    shared handle; a :class:`~repro.ml.fedavg.ModelUpdate` object is only
    built if someone actually ``get``\\ s that device's key — the
    aggregation fold never does, it reads the stacked arrays directly.
    """

    __slots__ = ("_block",)

    def __init__(self, block: ColumnarOutcomes) -> None:
        self._block = block

    def __len__(self) -> int:
        return len(self._block)

    def __getitem__(self, position: int):
        return self._block.update_at(position)


class CloudIngestSink:
    """The production sink: storage + DeviceFlow/aggregation ingestion.

    Scalar delivery (:meth:`accept`) is one storage put (numeric runs),
    one :class:`Message`, then either a DeviceFlow submission or a direct
    ``service.receive_message``.  Block delivery (:meth:`accept_block`)
    performs the same ingestion wholesale: one ``storage.put_block``
    stamped with the block's per-device completion times, one
    :class:`MessageBlock`, then one ``deviceflow.submit_block`` or one
    ``service.receive_block`` fold — with the global model bit-identical
    to the scalar path by FedAvg partition invariance.

    Parameters
    ----------
    sim / task_id / storage / service:
        Cloud plumbing and the owning task.
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

    When neither dedup nor a round deadline is armed, every ingestion
    path is byte-for-byte the ungated fast path — the gate costs nothing
    unless the transport layer is in play.
    """

    def __init__(
        self,
        sim: Simulator,
        task_id: str,
        storage: ObjectStorage,
        service: AggregationService,
        deviceflow: DeviceFlow | None = None,
        dedup: bool = False,
        tracer: Tracer | None = None,
        trace_devices: bool = True,
    ) -> None:
        self.sim = sim
        self.task_id = task_id
        self.storage = storage
        self.service = service
        self.deviceflow = deviceflow
        self.prefers_waves = deviceflow is not None
        self.dedup = bool(dedup)
        # ``trace_devices`` is False when a TransportChannel fronts this
        # sink — the channel records each device completion instead
        # (deliveries here would otherwise double-record, once per retry
        # duplicate).  Ingest-gate drops are always recorded here.
        self.tracer = tracer
        self._trace_devices = tracer is not None and trace_devices
        #: Uploads admitted / dropped by the ingestion gate.
        self.delivered = 0
        self.duplicate_drops = 0
        self.late_drops = 0
        self._seen: set[tuple[str, int]] = set()
        self._deadlines: dict[int, float] = {}
        self._guarded = self.dedup

    # ------------------------------------------------------------------
    def begin_round(self, round_index: int, deadline: float | None = None) -> None:
        """Arm the ingestion gate for one round.

        ``deadline`` is an absolute simulated time: scalar deliveries at
        or after it (and block rows finishing at or after it) are
        dropped as late instead of folded.
        """
        if deadline is not None:
            self._deadlines[round_index] = float(deadline)
            self._guarded = True

    def _admit(self, device_id: str, round_index: int, when: float) -> bool:
        """Late/duplicate gate for one upload; updates the counters."""
        deadline = self._deadlines.get(round_index)
        if deadline is not None and when >= deadline:
            self.late_drops += 1
            if self.tracer is not None:
                self.tracer.record_ingest_drop(self.task_id, device_id, round_index, when, "late")
            return False
        if self.dedup:
            key = (device_id, round_index)
            if key in self._seen:
                self.duplicate_drops += 1
                if self.tracer is not None:
                    self.tracer.record_ingest_drop(
                        self.task_id, device_id, round_index, when, "duplicate"
                    )
                return False
            self._seen.add(key)
        self.delivered += 1
        return True

    def _admit_rows(self, device_ids, round_index: int, when) -> np.ndarray | None:
        """Gate a block's rows; ``None`` means every row was admitted.

        ``when`` holds the rows' arrival times: the per-row completion
        times of a direct block, or the one instant (``sim.now``) a
        DeviceFlow delivery chunk arrives at — so a chunk's late check is
        a single comparison.  Dedup runs per row, and only when armed.
        Otherwise returns the boolean mask of admitted rows.
        """
        n = len(device_ids)
        deadline = self._deadlines.get(round_index)
        if deadline is None and not self.dedup:
            self.delivered += n
            return None
        times = np.broadcast_to(np.asarray(when, dtype=np.float64), (n,))
        late = times >= deadline if deadline is not None else np.zeros(n, dtype=bool)
        duplicate = np.zeros(n, dtype=bool)
        if self.dedup:
            seen = self._seen
            for position in np.flatnonzero(~late).tolist():
                key = (device_ids[position], round_index)
                if key in seen:
                    duplicate[position] = True
                else:
                    seen.add(key)
        dropped = late | duplicate
        n_dropped = int(np.count_nonzero(dropped))
        self.delivered += n - n_dropped
        if n_dropped == 0:
            return None
        self.late_drops += int(np.count_nonzero(late))
        self.duplicate_drops += int(np.count_nonzero(duplicate))
        if self.tracer is not None:
            for position in np.flatnonzero(dropped).tolist():
                self.tracer.record_ingest_drop(
                    self.task_id,
                    device_ids[position],
                    round_index,
                    float(times[position]),
                    "late" if late[position] else "duplicate",
                )
        return ~dropped

    # ------------------------------------------------------------------
    def accept(self, outcome: DeviceRoundOutcome) -> None:
        """Per-device ingestion."""
        if self._trace_devices:
            self.tracer.record_device(
                self.task_id,
                outcome.device_id,
                outcome.grade,
                outcome.round_index,
                outcome.n_samples,
                outcome.payload_bytes,
                float(outcome.finished_at),
            )
        # Flow-connected sinks gate at dispatcher delivery instead
        # (:meth:`flow_receive`): a submission is not an ingestion yet.
        if (
            self._guarded
            and self.deviceflow is None
            and not self._admit(outcome.device_id, outcome.round_index, self.sim.now)
        ):
            return
        self._ingest(outcome)

    def _ingest(self, outcome: DeviceRoundOutcome) -> None:
        ref = payload_ref(self.task_id, outcome.device_id, outcome.round_index)
        if outcome.update is not None:
            self.storage.put(
                ref, outcome.update, outcome.payload_bytes, now=self.sim.now,
                writer=outcome.device_id,
            )
        message = Message(
            task_id=self.task_id,
            device_id=outcome.device_id,
            round_index=outcome.round_index,
            payload_ref=ref,
            size_bytes=outcome.payload_bytes,
            n_samples=outcome.n_samples,
            metadata={"grade": outcome.grade},
        )
        if self.deviceflow is not None:
            self.deviceflow.submit(message)
        else:
            self.service.receive_message(message)

    def accept_block(self, block: ColumnarOutcomes) -> None:
        """Block ingestion: one put, one message block, one submit or fold.

        ``block`` is a plan's whole round (direct tasks) or one
        completion wave of it, delivered at the wave's time (tasks
        shaped by DeviceFlow).
        """
        n = len(block)
        if n == 0:
            return
        if self._trace_devices:
            # O(1): the tracer keeps a reference to the columnar block
            # and expands it to per-device records at assembly time.
            self.tracer.record_block(self.task_id, block)
        round_index = block.round_index
        device_ids = block.device_ids
        if self._guarded and self.deviceflow is None:
            keep = self._admit_rows(device_ids, round_index, block.finished_at)
            if keep is not None:
                # Rows were dropped: ingest the survivors per device (in
                # block order).  The exact-sum fold makes the aggregate
                # bit-identical to a filtered block ingest.
                outcomes = block.materialize()
                for position in np.flatnonzero(keep).tolist():
                    self._ingest(outcomes[position])
                return
        has_updates = block.update_weights is not None and block.update_biases is not None
        refs = None  # time-only traffic stores nothing: the keys stay implicit
        if has_updates:
            refs = [payload_ref(self.task_id, d, round_index) for d in device_ids]
            self.storage.put_block(
                refs,
                _BlockUpdateView(block),
                block.payload_bytes,
                now=block.finished_at,
                writers=device_ids,
            )
        message_block = MessageBlock(
            task_id=self.task_id,
            round_index=round_index,
            device_ids=device_ids,
            payload_refs=refs,
            size_bytes=block.payload_bytes,
            n_samples=block.n_samples_array(),
            finished_at=block.finished_at,
            metadata={"grade": block.plan.grade},
            update_weights=block.update_weights if has_updates else None,
            update_biases=block.update_biases if has_updates else None,
        )
        if self.deviceflow is not None:
            self.deviceflow.submit_block(message_block)
        else:
            self.service.receive_block(message_block)

    # ------------------------------------------------------------------
    def flow_receive(self, segment: Message | MessageBlock) -> None:
        """DeviceFlow downstream endpoint with the ingestion gate applied.

        Receives what the dispatcher delivers: the :class:`Message` of a
        scalar submission, or a :class:`MessageBlock` of rows that were
        submitted as blocks.  Flow-dispatched traffic reaches the cloud
        at dispatcher delivery time, so the late/duplicate check runs
        against ``sim.now`` here rather than at outcome production —
        once for a whole block, whose rows all arrive at this instant.
        """
        if isinstance(segment, Message):
            if not self._guarded or self._admit(
                segment.device_id, segment.round_index, self.sim.now
            ):
                self.service.receive_message(segment)
            return
        if self._guarded:
            keep = self._admit_rows(segment.device_ids, segment.round_index, self.sim.now)
            if keep is not None:
                if not keep.any():
                    return
                segment = segment.compress(keep)
        self.service.receive_block(segment)
