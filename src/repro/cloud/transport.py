"""Fault-tolerant device→cloud transport: a seedable lossy channel.

Real uplinks lose uploads, retry them with backoff, duplicate some and
reject all of them while the ingestion service is down.  This module
models that loop deterministically:

* :class:`ChannelModel` — latency plus uniform jitter, loss/duplication
  probabilities and per-tenant :class:`ChannelWindow` impairments
  (``loss`` / ``duplication`` / ``outage``, from the scenario fault plan);
  retries back off exponentially (capped), jittered by the device's own
  stream, and after ``max_attempts`` sends an upload is *abandoned*.
* :class:`TransportChannel` — fronts any :class:`~repro.cloud.sink.OutcomeSink`
  and plans each segment it is handed in one pass, in row order.  A survivor
  is a row of the round's copy of its plan block, whose time column holds
  the arrivals.  A rule-based DeviceFlow task's sink takes a segment's
  survivors at once, dated ahead (:class:`~repro.deviceflow.messages.Arrivals`);
  any other gets each in its own kernel event at its arrival, a duplicate
  directly after its primary.

Determinism contract: every draw comes from the stream
``transport.{task}.{device}`` (a row of the channel's per-task
:class:`~repro.simkernel.random.StreamBank`, seeded a plan at a time and
bit-identical to the named ``Generator``) and depends on ``(seed, name,
draw index)`` only (:mod:`repro.simkernel.random`).  Draw counts depend
only on the *send* times, never on ``sim.now`` at delivery, so runs draw
alike however uploads are grouped into blocks and whichever other devices
exist.  Duplicates share the primary's arrival; the
:class:`~repro.cloud.sink.CloudIngestSink` dedup table folds them once,
and the error-free FedAvg fold is bit-identical in any delivery order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.checks import (
    check_count, check_end, check_finite, check_non_negative, check_positive, check_probability, is_number,
)
from repro.deviceflow.messages import Arrivals, Segment, row_key
from repro.simkernel import Signal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deviceflow.controller import DeviceFlow
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
        check_finite("at", self.at)
        check_end("until", self.until)  # inf: the window never closes
        if self.until <= self.at:
            raise ValueError(f"channel window must end after it starts: until={self.until!r} <= at={self.at!r}")
        if not (is_number(self.prob) and 0.0 < self.prob <= 1.0):  # a zero-probability window is a typo
            raise ValueError(f"prob must be in (0, 1], got {self.prob!r}")


class ScopeWindows(NamedTuple):
    """The windows of a model that apply to one scope, by kind, in the model's order."""

    loss: tuple[ChannelWindow, ...]
    duplication: tuple[ChannelWindow, ...]
    outage: tuple[ChannelWindow, ...]


class UploadPlan(NamedTuple):
    """The planned fate of one device-round upload.

    ``arrival`` is the simulated delivery time of the surviving send, or
    ``None`` when every attempt was lost (the upload is abandoned).
    """

    arrival: float | None
    retries: int
    duplicate: bool


#: Builds an :class:`UploadPlan` from a tuple without the Python-level
#: ``__new__`` a NamedTuple call goes through (about a quarter of a plan's own cost).
_new_tuple = tuple.__new__


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
        for name, count in asdict(other).items():
            setattr(self, name, getattr(self, name) + count)

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


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
        # A string where a probability belongs, a NaN latency or max_attempts=2.5
        # fails here, not mid-run inside plan_upload or as the kernel's
        # "cannot schedule at nan".
        check_non_negative("latency_s", self.latency_s)
        check_non_negative("jitter_s", self.jitter_s)
        if not (is_number(self.loss_prob) and 0.0 <= self.loss_prob < 1.0):  # 1: no upload ever lands
            raise ValueError(f"loss_prob must be in [0, 1), got {self.loss_prob!r}")
        check_probability("dup_prob", self.dup_prob)
        check_positive("retry_base_s", self.retry_base_s)
        check_positive("retry_cap_s", self.retry_cap_s)
        check_count("max_attempts", self.max_attempts)

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
        loss, duplication, outage = self.windows_for(scope) if isinstance(scope, str) else scope
        random = rng.random
        last = self.max_attempts
        t_send = float(t0)
        attempt = 0
        while attempt < last:
            attempt += 1
            for window in outage:
                if window.at <= t_send < window.until:
                    break  # the service rejects the send outright
            else:
                keep = 1.0 - self.loss_prob
                for window in loss:
                    if window.at <= t_send < window.until:
                        keep *= 1.0 - window.prob
                p = 1.0 - keep
                if not (p > 0.0 and random() < p):
                    arrival = t_send + self.latency_s
                    if self.jitter_s > 0.0:
                        arrival += random() * self.jitter_s
                    keep = 1.0 - self.dup_prob
                    for window in duplication:
                        if window.at <= t_send < window.until:
                            keep *= 1.0 - window.prob
                    q = 1.0 - keep
                    return _new_tuple(UploadPlan, (arrival, attempt - 1, q > 0.0 and random() < q))
            if attempt < last:
                backoff = min(self.retry_cap_s, self.retry_base_s * (2.0 ** (attempt - 1)))
                t_send += backoff * (0.5 + 0.5 * random())
        return _new_tuple(UploadPlan, (None, last - 1, False))


class TransportChannel:
    """Simulation adapter: runs a :class:`ChannelModel` in front of a sink.

    Presents the :class:`~repro.cloud.sink.OutcomeSink` protocol to the tiers and plans each upload with
    the device's stream ``transport.{task}.{device}`` (a row of a per-task
    :class:`~repro.simkernel.random.StreamBank`; see :meth:`seed`).  Arrivals in the past (rows whose
    wave already completed) are clamped to *now*, which the round barrier dominates anyway.  Each
    delivery is keyed where one event per upload, scheduled in row order, fires; rows handed over
    ahead take reserved keys (:meth:`~repro.simkernel.Simulator.reserve`) and one sentinel event sits
    at the latest.  The runner awaits :meth:`finish_round` after the round barrier so in-flight
    deliveries land before aggregation (and the copies go).
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
        #: This round's copies by id(plan block): (the block, held so no other takes its id, and its copy
        #: whose time column holds the arrivals).
        self._arrivals: dict[int, tuple[MessageBlock, MessageBlock]] = {}
        self.tracer = tracer
        # Ask the tiers for whatever granularity the fronted sink wants.
        self.prefers_waves = bool(getattr(inner, "prefers_waves", False))
        self.totals = TransportCounters()
        self.round = TransportCounters()
        self._deadline: float | None = None
        self._pending = 0
        self._drained: Signal | None = None
        self._flow: DeviceFlow | None = getattr(inner, "deviceflow", None)
        #: Deliveries handed over ahead and not yet due, and the event at the latest of their keys.
        self._ahead, self._sentinel = 0, None

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

    def accept_block(self, block: Segment) -> None:
        """Plan every row's upload in row order; deliver the survivors (see the class docstring).

        One pass over the segment: a row costs its plan's draws, plus one kernel event (two when
        duplicated) unless the sink takes it ahead; the round's counters move once per segment.
        """
        parent, index = block.parent, block.index
        task_id, round_index = parent.task_id, parent.round_index
        stream = self.seed(task_id, block.device_ids).stream
        plan_upload, windows = self.model.plan_upload, self._windows
        deadline = math.inf if self._deadline is None else self._deadline
        now, schedule_at, deliver = self.sim.now, self.sim.schedule_at, self._deliver
        tracer = self.tracer
        # The survivors' rows, each duplicate directly behind its primary, when the sink shelves them ahead.
        ahead: list[int] | None = [] if self._flow is not None and self._flow.defers_arrivals(task_id) else None
        # An upload's time column is its arrival: each delivery is a row of this
        # round's copy of the plan block, its row set to the arrival first.
        if id(parent) not in self._arrivals:
            self._arrivals[id(parent)] = (parent, replace(parent, finished_at=parent.finished_at.astype(np.float64)))
        timed = self._arrivals[id(parent)][1]
        arrivals = timed.finished_at
        retries = abandoned = late = delivered = duplicates = 0
        for row, device_id, t0 in zip(index, block.device_ids, parent.finished_at[row_key(index)].tolist()):
            arrival, tries, duplicate = plan_upload(stream(device_id), t0, windows)
            retries += tries
            if arrival is None:
                abandoned += 1
                status = "abandoned"
            elif arrival >= deadline:
                # Late primaries are dropped before duplication: a copy of a
                # late upload would be deduplicated against nothing.
                late += 1
                status = "late"
            else:
                delivered += 1
                status = "delivered"
                # Arrivals in the past (rows whose wave already completed) land now.
                at = arrivals[row] = arrival if arrival >= now else now
                duplicates += duplicate
                if ahead is not None:
                    ahead += (row, row) if duplicate else (row,)
                else:
                    upload = Segment(timed, range(row, row + 1))
                    schedule_at(at, deliver, upload)
                    if duplicate:
                        schedule_at(at, deliver, upload)
            if tracer is not None:
                tracer.record_upload(
                    task_id, device_id, round_index, t0, arrival, tries, status == "delivered" and duplicate, status,
                )
        counters = self.round
        counters.uploads += len(block)
        counters.retries += retries
        counters.abandoned += abandoned
        counters.late_drops += late
        counters.delivered += delivered
        counters.duplicates += duplicates
        self._pending += delivered + duplicates
        if ahead:
            self._hand_ahead(timed, np.array(ahead, dtype=np.int64))

    def _hand_ahead(self, timed: MessageBlock, index: np.ndarray) -> None:
        """Hand ``index``'s rows over as :class:`Arrivals`; re-arm the sentinel if the latest key moved."""
        seq, times = self.sim.reserve(len(index)), timed.finished_at[index]
        last = int(np.flatnonzero(times == times.max())[-1])  # the row of the latest key
        if self._sentinel is None or times[last] >= self._sentinel.time:
            if self._sentinel is not None:
                self.sim.cancel(self._sentinel)
            self._sentinel = self.sim.schedule_at(float(times[last]), self._deliver, None, seq=seq + last)
        self._ahead += len(index)
        self.inner.accept_block(Arrivals(timed, index, seq))

    def _deliver(self, upload: Segment | None) -> None:
        """One upload's delivery event, or (``None``) the sentinel: every row handed over ahead has arrived."""
        settled = 1
        try:
            if upload is None:
                self._sentinel, settled, self._ahead = None, self._ahead, 0
            else:
                self.inner.accept_block(upload)
        finally:
            self._pending -= settled
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
        self._arrivals.clear()
        counters = self.round
        self.totals.merge(counters)
        return counters
