"""Fault-tolerant device→cloud transport: a seedable lossy channel.

Real device-cloud deployments never enjoy the lossless, exactly-once,
zero-latency uplink the simulator's ingestion path assumed: uploads are
lost, retried with backoff, occasionally duplicated, and rejected
wholesale while the ingestion service is down.  This module models that
loop deterministically:

* :class:`ChannelModel` — declarative channel behaviour: base delivery
  latency plus uniform jitter, loss/duplication probabilities, and
  scheduled :class:`ChannelWindow` impairments (per-tenant ``loss`` /
  ``duplication`` / ``outage`` windows driven by the scenario fault
  plan).
* a device-side retry policy — capped exponential backoff with
  deterministic jitter drawn from the device's own stream; after
  ``max_attempts`` sends the upload is *abandoned*.
* :class:`TransportChannel` — the simulation adapter: it fronts any
  :class:`~repro.cloud.sink.OutcomeSink`, plans one upload per device
  round (a block's rows are routed per device, in block order), and
  delivers each surviving upload as a block of one row — ``block[row :
  row + 1]``, a view of the tier's block with the arrival as its time
  column: one kernel event (:meth:`~repro.simkernel.Simulator.schedule_at`)
  at its arrival time, a duplicate one more directly after it.

Determinism contract: every draw comes from the stream named
``transport.{task}.{device}`` — a row of the channel's per-task
:class:`~repro.simkernel.random.StreamBank`, seeded a plan at a time and
bit-identical to the named ``Generator`` it replaces — and follows the
draw convention written in :mod:`repro.simkernel.random`: a draw depends
on ``(seed, name, draw index)`` only.  The number of draws per upload
depends only on the *send* times (never on ``sim.now`` at delivery), so
repeat runs consume identical random sequences however uploads are
grouped into blocks and whichever other devices exist.
Duplicated deliveries share the primary's arrival time, and the
downstream :class:`~repro.cloud.sink.CloudIngestSink` dedup table folds
them exactly once; the FedAvg fold is error-free-transformed, so the
aggregate is bit-identical no matter the delivery order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.simkernel import Signal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deviceflow.messages import MessageBlock
    from repro.observability.tracing import Tracer
    from repro.simkernel import RandomStreams, Simulator
    from repro.simkernel.random import StreamBank

#: Impairment kinds a window can schedule (mirrors the FaultSpec kinds
#: ``message_loss`` / ``message_duplication`` / ``service_outage``).
WINDOW_KINDS = ("loss", "duplication", "outage")


@dataclass
class ChannelWindow:
    """One scheduled impairment interval on the channel.

    ``prob`` is the extra loss/duplication probability while the window
    is active (ignored for ``outage``, which rejects every send).  An
    empty ``tenant`` applies the window to every task on the channel.
    """

    kind: str
    at: float
    until: float
    prob: float = 1.0
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS:
            raise ValueError(f"unknown channel window kind {self.kind!r}; known: {WINDOW_KINDS}")
        for name in ("at", "until"):
            value = getattr(self, name)
            if not isinstance(value, Real) or math.isnan(value):
                raise ValueError(f"channel window {name} must be a number, got {value!r}")
        if math.isinf(self.at):
            raise ValueError(f"channel window at must be finite, got {self.at!r}")
        if self.until <= self.at:
            raise ValueError(
                f"channel window must end after it starts: until={self.until!r} <= at={self.at!r}"
            )
        if not 0.0 < self.prob <= 1.0:
            raise ValueError(f"channel window prob must be in (0, 1], got {self.prob!r}")


class ScopeWindows(NamedTuple):
    """The windows of a model that apply to one scope, by kind, in the model's order."""

    loss: tuple[ChannelWindow, ...]
    duplication: tuple[ChannelWindow, ...]
    outage: tuple[ChannelWindow, ...]


@dataclass
class UploadPlan:
    """The planned fate of one device-round upload.

    ``arrival`` is the simulated delivery time of the surviving send, or
    ``None`` when every attempt was lost (the upload is abandoned).
    """

    arrival: float | None
    retries: int
    duplicate: bool


@dataclass
class TransportCounters:
    """Transport bookkeeping for one round (or whole task)."""

    uploads: int = 0
    delivered: int = 0
    retries: int = 0
    duplicates: int = 0
    abandoned: int = 0
    late_drops: int = 0

    def merge(self, other: TransportCounters) -> None:
        self.uploads += other.uploads
        self.delivered += other.delivered
        self.retries += other.retries
        self.duplicates += other.duplicates
        self.abandoned += other.abandoned
        self.late_drops += other.late_drops

    def as_dict(self) -> dict[str, int]:
        return {
            "uploads": self.uploads,
            "delivered": self.delivered,
            "retries": self.retries,
            "duplicates": self.duplicates,
            "abandoned": self.abandoned,
            "late_drops": self.late_drops,
        }


@dataclass
class ChannelModel:
    """Declarative device→cloud channel behaviour.

    Base impairments apply for the whole run; :attr:`windows` add
    scheduled intervals on top (active probabilities combine as
    independent loss sources).  The retry policy is capped exponential
    backoff — attempt *k* waits ``min(retry_cap_s, retry_base_s *
    2**(k-1))`` scaled by a deterministic jitter in ``[0.5, 1.0)``.
    """

    latency_s: float = 0.0
    jitter_s: float = 0.0
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    retry_base_s: float = 2.0
    retry_cap_s: float = 60.0
    max_attempts: int = 4
    windows: list[ChannelWindow] = field(default_factory=list)

    def __post_init__(self) -> None:
        # A string where a probability belongs, a NaN latency (NaN passes every
        # range test) or max_attempts=2.5 fails here, not mid-run inside
        # plan_upload or as the kernel's "cannot schedule at nan".
        for name in ("latency_s", "jitter_s", "loss_prob", "dup_prob", "retry_base_s", "retry_cap_s"):
            value = getattr(self, name)
            if not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.max_attempts, Integral) or self.max_attempts < 1:
            raise ValueError(f"max_attempts must be an integer >= 1, got {self.max_attempts!r}")
        if self.latency_s < 0.0 or self.jitter_s < 0.0:
            raise ValueError(
                f"channel latency/jitter must be >= 0, got "
                f"latency_s={self.latency_s!r}, jitter_s={self.jitter_s!r}"
            )
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1), got {self.loss_prob!r}")
        if not 0.0 <= self.dup_prob <= 1.0:
            raise ValueError(f"dup_prob must be in [0, 1], got {self.dup_prob!r}")
        if self.retry_base_s <= 0.0 or self.retry_cap_s <= 0.0:
            raise ValueError(
                f"retry backoff must be > 0, got base={self.retry_base_s!r}, "
                f"cap={self.retry_cap_s!r}"
            )

    def windows_for(self, scope: str | ScopeWindows) -> ScopeWindows:
        """The windows applying to ``scope`` (untenanted ones and its own), by kind.

        Wherever a method takes a ``scope``, the tenant's name and the
        :class:`ScopeWindows` this returned for it mean the same thing; a
        :class:`TransportChannel` filters once, at construction, and
        passes the result, so an attempt never re-tests a tenant.
        """
        if not isinstance(scope, str):
            return scope
        mine = [window for window in self.windows if not window.tenant or window.tenant == scope]
        return ScopeWindows(*(tuple(w for w in mine if w.kind == kind) for kind in WINDOW_KINDS))

    def loss_prob_at(self, time: float, scope: str | ScopeWindows) -> float:
        """Combined loss probability at ``time`` (independent sources)."""
        keep = 1.0 - self.loss_prob
        for window in self.windows_for(scope).loss:
            if window.at <= time < window.until:
                keep *= 1.0 - window.prob
        return 1.0 - keep

    def dup_prob_at(self, time: float, scope: str | ScopeWindows) -> float:
        """Combined duplication probability at ``time``."""
        keep = 1.0 - self.dup_prob
        for window in self.windows_for(scope).duplication:
            if window.at <= time < window.until:
                keep *= 1.0 - window.prob
        return 1.0 - keep

    def in_outage(self, time: float, scope: str | ScopeWindows) -> bool:
        """Whether the ingestion service rejects sends at ``time``."""
        return any(window.at <= time < window.until for window in self.windows_for(scope).outage)

    def active_for(self, scope: str) -> bool:
        """Whether this channel can perturb ``scope``'s uploads at all.

        A trivial model (no base impairment, no applicable window) lets
        the runner skip the channel entirely, keeping the lossless run
        byte-identical to no channel at all.
        """
        if self.latency_s > 0.0 or self.jitter_s > 0.0:
            return True
        if self.loss_prob > 0.0 or self.dup_prob > 0.0:
            return True
        return any(self.windows_for(scope))

    def plan_upload(self, rng, t0: float, scope: str | ScopeWindows) -> UploadPlan:
        """Plan one upload that first becomes ready at time ``t0``.

        ``rng`` is the device's stream: anything with ``random()``.  Draw
        counts depend only on the send times derived from ``t0``, never
        on the caller's clock, so the plan is identical however the
        round's rows were cut into blocks.  Each attempt tests the scope's
        windows inline, combining them exactly as :meth:`in_outage`,
        :meth:`loss_prob_at` and :meth:`dup_prob_at` do.
        """
        loss, duplication, outage = self.windows_for(scope)
        random = rng.random
        last = self.max_attempts
        t_send = float(t0)
        for attempt in range(1, last + 1):
            for window in outage:
                if window.at <= t_send < window.until:
                    lost = True  # the service rejects the send outright
                    break
            else:
                keep = 1.0 - self.loss_prob
                for window in loss:
                    if window.at <= t_send < window.until:
                        keep *= 1.0 - window.prob
                p = 1.0 - keep
                lost = p > 0.0 and random() < p
            if not lost:
                arrival = t_send + self.latency_s
                if self.jitter_s > 0.0:
                    arrival += random() * self.jitter_s
                keep = 1.0 - self.dup_prob
                for window in duplication:
                    if window.at <= t_send < window.until:
                        keep *= 1.0 - window.prob
                q = 1.0 - keep
                return UploadPlan(arrival=arrival, retries=attempt - 1, duplicate=q > 0.0 and random() < q)
            if attempt < last:
                backoff = min(self.retry_cap_s, self.retry_base_s * (2.0 ** (attempt - 1)))
                t_send += backoff * (0.5 + 0.5 * random())
        return UploadPlan(arrival=None, retries=last - 1, duplicate=False)


class TransportChannel:
    """Simulation adapter: runs a :class:`ChannelModel` in front of a sink.

    Presents the :class:`~repro.cloud.sink.OutcomeSink` protocol to the
    execution tiers; plans each device's upload with the device's row of a
    per-task :class:`~repro.simkernel.random.StreamBank` (the stream named
    ``transport.{task}.{device}``, the task being the block's; see
    :meth:`seed`) and delivers survivors to ``inner`` as kernel events at
    their (possibly retried, possibly late) arrival times: each delivery
    is the upload's row of the block with the arrival as its time column.
    A block's rows are routed per device in block order, so uploads with
    equal arrival deliver in block row order, a duplicate directly after
    its primary.

    The runner awaits :meth:`finish_round` after the round barrier so
    in-flight deliveries land before aggregation; deliveries scheduled
    in the past (block rows whose wave already completed) are clamped to
    *now*, which never changes the round-end time because the barrier
    already dominates every block timestamp.
    """

    def __init__(
        self,
        sim: Simulator,
        model: ChannelModel,
        inner,
        streams: RandomStreams,
        scope: str,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.inner = inner
        self.streams = streams
        # Windows are baked into the model before the channel exists and
        # never change: filter them to this scope once, not per attempt.
        self._windows = model.windows_for(scope)
        self._banks: dict[str, StreamBank] = {}
        self.tracer = tracer
        # Ask the tiers for whatever granularity the fronted sink wants.
        self.prefers_waves = bool(getattr(inner, "prefers_waves", False))
        self.totals = TransportCounters()
        self.round = TransportCounters()
        self._deadline: float | None = None
        self._pending = 0
        self._drained: Signal | None = None

    def begin_round(self, round_index: int, deadline: float | None = None) -> None:
        """Reset per-round counters; drop deliveries at/after ``deadline``."""
        self.round = TransportCounters()
        self._deadline = deadline

    def seed(self, task_id: str, device_ids: Iterable[str]) -> StreamBank:
        """Seed ``task_id``'s upload streams for whichever ``device_ids`` have none; return its bank.

        One vectorised pass per call, so the unit should be a plan's id
        column (the runner's call) rather than a 29-row wave; a block
        whose ids were never announced is seeded here all the same, and
        to the same streams.
        """
        bank = self._banks.get(task_id)
        if bank is None:
            bank = self._banks[task_id] = self.streams.bank(f"transport.{task_id}.")
        bank.seed(device_ids)
        return bank

    def accept_block(self, block: MessageBlock) -> None:
        # Draws are keyed per device; the exact-sum fold downstream makes
        # the delivery order irrelevant to the aggregate.
        bank = self.seed(block.task_id, block.device_ids)
        for row, (device_id, t0) in enumerate(zip(block.device_ids, block.finished_at.tolist())):
            self._route(block, row, device_id, t0, bank)

    def _route(self, block: MessageBlock, row: int, device_id: str, t0: float, bank: StreamBank) -> None:
        self.round.uploads += 1
        plan = self.model.plan_upload(bank.stream(device_id), t0, self._windows)
        self.round.retries += plan.retries
        status = "delivered"
        if plan.arrival is None:
            self.round.abandoned += 1
            status = "abandoned"
        elif self._deadline is not None and plan.arrival >= self._deadline:
            # Late primaries are dropped before duplication: a copy of a
            # late upload would be deduplicated against nothing.
            self.round.late_drops += 1
            status = "late"
        delivered = status == "delivered"
        if self.tracer is not None:
            self.tracer.record_upload(
                block.task_id, device_id, block.round_index,
                t0, plan.arrival, plan.retries, delivered and plan.duplicate, status,
            )
        if not delivered:
            return
        self.round.delivered += 1
        # Arrivals in the past (rows whose wave already completed) land now.
        arrival = max(plan.arrival, self.sim.now)
        upload = block[row : row + 1]
        upload.finished_at = np.array([arrival])  # an upload's time column is its arrival
        self._pending += 1
        self.sim.schedule_at(arrival, self._deliver, upload)
        if plan.duplicate:
            self.round.duplicates += 1
            self._pending += 1
            self.sim.schedule_at(arrival, self._deliver, upload)

    def _deliver(self, upload: MessageBlock) -> None:
        try:
            self.inner.accept_block(upload)
        finally:
            self._pending -= 1
            if self._pending == 0 and self._drained is not None:
                self._drained.fire(None)
                self._drained = None

    def finish_round(self):
        """Wait for in-flight deliveries, fold the round into the totals.

        A generator the runner drives with ``yield from``; returns the
        finished round's counters.
        """
        if self._pending > 0:
            self._drained = Signal(name="transport.drain")
            yield self._drained
        counters = self.round
        self.totals.merge(counters)
        return counters
