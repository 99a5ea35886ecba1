"""Per-upload reference implementation of the device→cloud leg.

The delivery path as it stood while ``src/repro`` still carried it twice:
one outcome object per device, one ``put`` per payload, one ``Message`` per
upload, one ``submit`` / ``receive_message`` per message, a list of
``ModelUpdate`` objects folded by a flat FedAvg, a transport channel that
routes and delivers one outcome at a time.  It defines what the block path
in ``repro.cloud`` / ``repro.deviceflow`` must reproduce exactly when a
round's rows are cut into blocks any way at all — aggregation history and
model bits, gate counters, storage writes, DeviceFlow statistics and the
per-device trace capture — and the differential in
``tests/test_cloud_blocks.py`` holds production to it.  Do not optimise it.

Conventions: an upload *reaches the cloud* at ``outcome.finished_at`` (the
completion time of a row delivered directly; the arrival a channel stamps
on what it delivers); flow-dispatched traffic is gated at dispatcher
delivery, against ``sim.now``.

Shared with ``src/``: the kernel, the ``ChannelModel`` window queries
(``windows_for`` / ``in_outage`` / ``loss_prob_at`` / ``dup_prob_at``) and the
transport counters, the aggregation triggers, and the ``AggregationRecord`` /
``ModelUpdate`` records.  The per-attempt upload planner is this oracle's
own (:func:`plan_upload`); ``ChannelModel.plan_upload`` must equal it plan
for plan and draw for draw.  DeviceFlow is the per-message one in
``reference.deviceflow_reference``.  The storage hop is this oracle's own
(``src/`` folds the updates a block carries inline and stores nothing):
its fold reads each update back from :class:`ReferenceStorage`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.cloud.aggregation import AggregationRecord
from repro.cloud.transport import TransportCounters, UploadPlan
from repro.ml.fedavg import ModelUpdate
from repro.simkernel import Signal

from reference.deviceflow_reference import Message
from reference.tier_reference import DeviceRoundOutcome


def plan_upload(model, rng, t0: float, scope) -> UploadPlan:
    """Plan one upload the per-attempt way: one window query per attempt and kind."""
    scope = model.windows_for(scope)
    t_send = float(t0)
    for attempt in range(1, model.max_attempts + 1):
        if model.in_outage(t_send, scope):
            lost = True  # the service rejects the send outright
        else:
            p = model.loss_prob_at(t_send, scope)
            lost = p > 0.0 and rng.random() < p
        if not lost:
            arrival = t_send + model.latency_s
            if model.jitter_s > 0.0:
                arrival += rng.random() * model.jitter_s
            q = model.dup_prob_at(t_send, scope)
            duplicate = q > 0.0 and rng.random() < q
            return UploadPlan(arrival=arrival, retries=attempt - 1, duplicate=duplicate)
        if attempt < model.max_attempts:
            backoff = min(model.retry_cap_s, model.retry_base_s * (2.0 ** (attempt - 1)))
            t_send += backoff * (0.5 + 0.5 * rng.random())
    return UploadPlan(arrival=None, retries=model.max_attempts - 1, duplicate=False)


def fedavg(updates) -> tuple[np.ndarray, float]:
    """Sample-weighted average ``sum_k n_k w_k / sum_k n_k``, correctly rounded.

    Each product rounds once, each dimension's sum is ``math.fsum`` (the
    correctly rounded sum), and one division follows — the value the
    error-free block fold must produce whatever the order or grouping.
    """
    updates = list(updates)
    if not updates:
        raise ValueError("fedavg requires at least one update")
    shapes = {np.shape(update.weights) for update in updates}
    if len(shapes) != 1:
        raise ValueError(f"updates disagree on weight shape: {shapes}")
    total = sum(update.n_samples for update in updates)
    if total <= 0:
        raise ValueError("fedavg requires a positive total sample count")
    rows = [
        np.append(update.weights, update.bias) * float(update.n_samples) for update in updates
    ]
    summed = np.array([math.fsum(column) for column in zip(*rows)], dtype=np.float64)
    averaged = summed / float(total)
    return averaged[:-1], float(averaged[-1])


def payload_ref(task_id: str, device_id: str, round_index: int) -> str:
    """The storage key of one device's round result."""
    return f"{task_id}/{device_id}/r{round_index}"


@dataclass
class StoredObject:
    """One stored payload with accounting metadata."""

    key: str
    value: Any
    size_bytes: int
    stored_at: float
    writer: str = ""


class ReferenceStorage:
    """A keyed blob store written one payload at a time."""

    def __init__(self) -> None:
        self._objects: dict[str, StoredObject] = {}
        self.total_bytes_written = 0
        self.total_bytes_read = 0
        self.put_count = 0
        self.get_count = 0

    def __len__(self) -> int:
        return len(self._objects)

    def put(self, key: str, value, size_bytes: int, *, now: float = 0.0, writer: str = "") -> StoredObject:
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        record = StoredObject(key=key, value=value, size_bytes=int(size_bytes), stored_at=now, writer=writer)
        self._objects[key] = record
        self.total_bytes_written += int(size_bytes)
        self.put_count += 1
        return record

    def get(self, key: str):
        record = self.head(key)
        self.total_bytes_read += record.size_bytes
        self.get_count += 1
        return record.value

    def head(self, key: str) -> StoredObject:
        if key not in self._objects:
            raise KeyError(f"no object stored under {key!r}")
        return self._objects[key]

    def keys(self) -> list[str]:
        return sorted(self._objects)


class ReferenceAggregationService:
    """Buffers one fetched ``ModelUpdate`` per message, folds with flat FedAvg."""

    def __init__(self, sim, storage: ReferenceStorage, trigger, *, model=None, test_set=None) -> None:
        self.sim = sim
        self.storage = storage
        self.trigger = trigger
        self.model = model
        self.test_set = test_set
        self.history: list[AggregationRecord] = []
        self.messages_received = 0
        self.bytes_received = 0
        self.receive_log: list[tuple[float, int]] = []
        self._pending: list[ModelUpdate] = []
        self.pending_updates = 0
        self.pending_samples = 0
        self.rounds_completed = 0

    def receive_message(self, message: Message) -> None:
        """DeviceFlow downstream endpoint: fetch and buffer the update."""
        self.messages_received += 1
        self.bytes_received += message.size_bytes
        self.receive_log.append((self.sim.now, 1))
        if self.model is not None:
            payload = self.storage.get(message.payload_ref)
            if not isinstance(payload, ModelUpdate):
                raise TypeError(f"storage object {message.payload_ref!r} is not a ModelUpdate")
            self._pending.append(payload)
        self.pending_updates += 1
        self.pending_samples += message.n_samples
        self.trigger.on_update(self)

    def aggregate_now(self) -> AggregationRecord:
        if self.pending_updates == 0:
            raise RuntimeError("nothing buffered to aggregate")
        self.rounds_completed += 1
        record = AggregationRecord(
            round_index=self.rounds_completed,
            time=self.sim.now,
            n_updates=self.pending_updates,
            n_samples=self.pending_samples,
        )
        self.pending_updates = self.pending_samples = 0
        if self.model is not None:
            self.model.set_params(*fedavg(self._pending))
            self._pending = []
            if self.test_set is not None:
                metrics = self.model.evaluate(self.test_set.features, self.test_set.labels)
                record.test_loss = metrics["log_loss"]
                record.test_accuracy = metrics["accuracy"]
                record.test_auc = metrics["auc"]
        self.history.append(record)
        return record


class ReferenceTracer:
    """Per-device trace capture: one tuple per device, upload, drop, shelving and delivery."""

    def __init__(self) -> None:
        #: (task, device, grade, round, n_samples, payload_bytes, finished_at)
        self.devices: list[tuple] = []
        #: (task, device, round, t0, arrival-or-None, retries, duplicate, status)
        self.uploads: list[tuple] = []
        #: (task, device, round, time, reason)
        self.ingest_drops: list[tuple] = []
        #: (task, device, round, time)
        self.flow_submits: list[tuple] = []
        self.flow_deliveries: list[tuple] = []

    def record_device(self, task_id: str, outcome: DeviceRoundOutcome) -> None:
        self.devices.append(
            (
                task_id, outcome.device_id, outcome.grade, outcome.round_index,
                outcome.n_samples, outcome.payload_bytes, float(outcome.finished_at),
            )
        )


class ReferenceIngestSink:
    """Storage + DeviceFlow/aggregation ingestion, one upload at a time."""

    def __init__(
        self, sim, task_id, storage, service, deviceflow=None, dedup=False, tracer=None, trace_devices=True
    ) -> None:
        self.sim = sim
        self.task_id = task_id
        self.storage = storage
        self.service = service
        self.deviceflow = deviceflow
        self.dedup = bool(dedup)
        self.tracer = tracer
        self._trace_devices = tracer is not None and trace_devices
        self.delivered = 0
        self.duplicate_drops = 0
        self.late_drops = 0
        self._seen: set[tuple[str, int]] = set()
        self._deadlines: dict[int, float] = {}
        self._guarded = self.dedup

    def begin_round(self, round_index: int, deadline: float | None = None) -> None:
        if deadline is not None:
            self._deadlines[round_index] = float(deadline)
            self._guarded = True

    def _admit(self, device_id: str, round_index: int, when: float) -> bool:
        """Late/duplicate gate for one upload; updates the counters."""
        deadline = self._deadlines.get(round_index)
        if deadline is not None and when >= deadline:
            self.late_drops += 1
            if self.tracer is not None:
                self.tracer.ingest_drops.append((self.task_id, device_id, round_index, when, "late"))
            return False
        if self.dedup:
            key = (device_id, round_index)
            if key in self._seen:
                self.duplicate_drops += 1
                if self.tracer is not None:
                    self.tracer.ingest_drops.append((self.task_id, device_id, round_index, when, "duplicate"))
                return False
            self._seen.add(key)
        self.delivered += 1
        return True

    def accept(self, outcome: DeviceRoundOutcome) -> None:
        if self._trace_devices:
            self.tracer.record_device(self.task_id, outcome)
        # Flow-connected sinks gate at dispatcher delivery instead: a
        # submission is not an ingestion yet.
        if (
            self._guarded
            and self.deviceflow is None
            and not self._admit(outcome.device_id, outcome.round_index, float(outcome.finished_at))
        ):
            return
        ref = payload_ref(self.task_id, outcome.device_id, outcome.round_index)
        if outcome.update is not None:
            self.storage.put(
                ref, outcome.update, outcome.payload_bytes,
                now=float(outcome.finished_at), writer=outcome.device_id,
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
        if self.deviceflow is None:
            self.service.receive_message(message)
            return
        if self.tracer is not None:
            self.tracer.flow_submits.append(
                (self.task_id, outcome.device_id, outcome.round_index, self.sim.now)
            )
        self.deviceflow.submit(message)

    def flow_receive(self, message: Message) -> None:
        """DeviceFlow downstream endpoint with the gate applied at delivery time."""
        if self.tracer is not None:
            self.tracer.flow_deliveries.append(
                (message.task_id, message.device_id, message.round_index, self.sim.now)
            )
        if not self._guarded or self._admit(message.device_id, message.round_index, self.sim.now):
            self.service.receive_message(message)


class ReferenceTransportChannel:
    """Runs a ``ChannelModel`` in front of a per-upload sink, one outcome at a time."""

    def __init__(self, sim, model, inner, streams, task_id, scope, tracer=None) -> None:
        self.sim = sim
        self.model = model
        self.inner = inner
        self.streams = streams
        self.task_id = task_id
        self.scope = scope
        self.tracer = tracer
        self.totals = TransportCounters()
        self.round = TransportCounters()
        self._deadline: float | None = None
        self._pending = 0
        self._drained: Signal | None = None

    def begin_round(self, round_index: int, deadline: float | None = None) -> None:
        self.round = TransportCounters()
        self._deadline = deadline

    def accept(self, outcome: DeviceRoundOutcome) -> None:
        self.round.uploads += 1
        rng = self.streams.get(f"transport.{self.task_id}.{outcome.device_id}")
        t0 = float(outcome.finished_at)
        plan = plan_upload(self.model, rng, t0, self.scope)
        self.round.retries += plan.retries
        tracer = self.tracer
        if tracer is not None:
            tracer.record_device(self.task_id, outcome)
        upload = (self.task_id, outcome.device_id, outcome.round_index, t0)
        if plan.arrival is None:
            self.round.abandoned += 1
            if tracer is not None:
                tracer.uploads.append((*upload, None, plan.retries, False, "abandoned"))
            return
        if self._deadline is not None and plan.arrival >= self._deadline:
            # Late primaries are dropped before duplication.
            self.round.late_drops += 1
            if tracer is not None:
                tracer.uploads.append((*upload, plan.arrival, plan.retries, False, "late"))
            return
        self.round.delivered += 1
        if tracer is not None:
            tracer.uploads.append((*upload, plan.arrival, plan.retries, plan.duplicate, "delivered"))
        self._schedule(plan.arrival, outcome)
        if plan.duplicate:
            self.round.duplicates += 1
            self._schedule(plan.arrival, outcome)

    def _schedule(self, arrival: float, outcome: DeviceRoundOutcome) -> None:
        self._pending += 1
        arrival = max(arrival, self.sim.now)
        self.sim.schedule_at(arrival, self._deliver, replace(outcome, finished_at=arrival))

    def _deliver(self, outcome: DeviceRoundOutcome) -> None:
        try:
            self.inner.accept(outcome)
        finally:
            self._pending -= 1
            if self._pending == 0 and self._drained is not None:
                self._drained.fire(None)
                self._drained = None

    def finish_round(self):
        if self._pending > 0:
            self._drained = Signal(name=f"reference.transport.{self.task_id}.drain")
            yield self._drained
        counters = self.round
        self.totals.merge(counters)
        return counters
