"""Messages flowing from simulated devices through DeviceFlow to the cloud.

§V-A: "edge devices ... typically upload computation results to storage
upon task completion and transmit messages to cloud services.  Cloud
services then retrieve the corresponding data from storage based on the
received messages."  A message therefore carries a *reference* into shared
storage, not the payload itself.

Segments
--------
DeviceFlow's shelves and send queues hold *segments*: a segment is either
one :class:`Message` or a row range of a :class:`MessageBlock`.  All the
traffic controller needs of a segment is ``task_id``, ``round_index``,
``rows`` (how many messages it stands for), ``device_ids``, and — for
segments longer than one row — slicing (``segment[lo:hi]``) and
:meth:`MessageBlock.compress`.  A ``Message`` is its own one-row segment
(``rows`` is a class constant), so the scalar entry points pay for no
wrapper object and no method call to learn their size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

import numpy as np

_message_counter = itertools.count()

#: The per-row array columns of a :class:`MessageBlock`.
_ARRAY_COLUMNS = ("n_samples", "finished_at", "update_weights", "update_biases")


def payload_ref(task_id: str, device_id: str, round_index: int) -> str:
    """The shared-storage key of one device's round result."""
    return f"{task_id}/{device_id}/r{round_index}"


@dataclass
class Message:
    """One device-to-cloud notification.

    Attributes
    ----------
    task_id:
        Owning task; the Sorter routes on this.
    device_id:
        Producing simulated device.
    round_index:
        Collaboration round of the enclosed result.
    payload_ref:
        Key into shared object storage where the result bytes live.
    size_bytes:
        Size of the referenced payload (for bandwidth accounting).
    created_at:
        Simulated time the message entered DeviceFlow.
    n_samples:
        Training samples behind the result (drives sample-threshold
        aggregation without a storage round-trip).
    metadata:
        Free-form extras (grade, tier, backend ...).
    """

    task_id: str
    device_id: str
    round_index: int
    payload_ref: str
    size_bytes: int = 0
    created_at: float = 0.0
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

    #: A message is a one-row segment.
    rows = 1

    @property
    def device_ids(self) -> tuple[str]:
        """The producing device as a one-row column (segment access)."""
        return (self.device_id,)


@dataclass
class MessageBlock:
    """A wave's (or a whole round's) notifications as one struct-of-arrays block.

    The columnar counterpart of :class:`Message`: one block carries every
    device of one completion wave of a batched plan (or the whole plan,
    for direct dispatch), so DeviceFlow and the cloud services shelve,
    dispatch, transmit and fold the traffic as row ranges — one counter
    bump, one dropout draw, one FedAvg fold — without ever building a
    per-device object.  :meth:`messages` materializes the equivalent
    scalar messages for consumers that want them.

    A scalar :class:`Message` carries only a *reference* into shared
    storage; the block variant additionally inlines the stacked update
    arrays (``update_weights`` / ``update_biases``) when the producing
    plan was numeric — eliding per-device storage round-trips is exactly
    the point of block ingestion, and the referenced payloads remain
    stored (one ``put_block``) for any consumer that wants them.

    Row ranges (``block[lo:hi]``) share the parent's arrays; survivor
    selections (:meth:`compress`) and delivery chunks (:meth:`coalesce`)
    copy only the rows they keep.

    Attributes
    ----------
    task_id / round_index:
        Owning task and collaboration round (one block never spans
        rounds — batched plans emit per round).
    device_ids:
        Producing devices, in block (assignment) order.
    payload_refs:
        Per-device keys into shared object storage, aligned with
        ``device_ids``; ``None`` means the canonical
        :func:`payload_ref` keys, built only if someone asks.
    size_bytes:
        Per-device payload size (blocks are grade-homogeneous, so one
        number covers every device).
    n_samples:
        Per-device training-sample counts (``(n,)`` int array).
    finished_at:
        Per-device completion times; :meth:`messages` stamps these as the
        materialized messages' ``created_at`` when no explicit arrival
        time is given.
    created_at:
        Simulated time the block entered DeviceFlow (stamped by
        ``DeviceFlow.submit_block``; a coalesced delivery chunk keeps its
        oldest row's stamp).
    metadata:
        Free-form extras shared by every device (grade, tier, ...).
    update_weights / update_biases:
        Optional stacked model updates (``(n, dim)`` / ``(n,)``) for
        numeric rounds; ``None`` for time-only traffic.
    """

    task_id: str
    round_index: int
    device_ids: Sequence[str]
    payload_refs: Sequence[str] | None = None
    size_bytes: int = 0
    n_samples: np.ndarray | None = None
    finished_at: np.ndarray | None = None
    created_at: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)
    update_weights: np.ndarray | None = None
    update_biases: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        n = len(self.device_ids)
        if self.payload_refs is not None and len(self.payload_refs) != n:
            raise ValueError(f"got {n} device_ids but {len(self.payload_refs)} payload_refs")
        if self.n_samples is None:
            self.n_samples = np.ones(n, dtype=np.int64)
        else:
            self.n_samples = np.asarray(self.n_samples, dtype=np.int64)
            if len(self.n_samples) != n:
                raise ValueError(f"got {n} device_ids but {len(self.n_samples)} n_samples")
            if n and self.n_samples.min() <= 0:
                raise ValueError("n_samples must be positive")
        if self.finished_at is not None and len(self.finished_at) != n:
            raise ValueError(f"got {n} device_ids but {len(self.finished_at)} finished_at")
        if self.update_weights is not None and len(self.update_weights) != n:
            raise ValueError(f"got {n} device_ids but {len(self.update_weights)} update rows")
        if self.update_biases is not None and len(self.update_biases) != n:
            raise ValueError(f"got {n} device_ids but {len(self.update_biases)} update biases")

    def __len__(self) -> int:
        return len(self.device_ids)

    @property
    def rows(self) -> int:
        """Messages this segment stands for (segment access; same as ``len``)."""
        return len(self.device_ids)

    @property
    def total_bytes(self) -> int:
        """Bytes represented by the whole block (bulk accounting)."""
        return self.size_bytes * len(self.device_ids)

    @property
    def total_samples(self) -> int:
        """Training samples represented by the whole block."""
        return int(self.n_samples.sum()) if len(self.device_ids) else 0

    # ------------------------------------------------------------------
    # row selection (validated columns are reused, never re-validated)
    # ------------------------------------------------------------------
    def _derive(self, device_ids: Sequence[str], payload_refs, select=None) -> MessageBlock:
        """A block sharing this one's scalar fields, each array column mapped by ``select``."""
        block = MessageBlock.__new__(MessageBlock)
        fields = block.__dict__
        fields.update(self.__dict__)
        fields["device_ids"] = device_ids
        fields["payload_refs"] = payload_refs
        if select is not None:
            for column in _ARRAY_COLUMNS:
                values = fields[column]
                if values is not None:
                    fields[column] = select(values)
        return block

    def __getitem__(self, rows: slice) -> MessageBlock:
        """Zero-copy row range: array columns are views of this block's."""
        if not isinstance(rows, slice):
            raise TypeError("a MessageBlock is sliced by row range; use messages() for one row")
        refs = self.payload_refs
        return self._derive(
            self.device_ids[rows], None if refs is None else refs[rows], lambda values: values[rows]
        )

    def compress(self, keep: np.ndarray) -> MessageBlock:
        """The rows where the boolean mask ``keep`` is set (dropout survivors)."""
        flags = keep.tolist()
        refs = self.payload_refs
        return self._derive(
            list(itertools.compress(self.device_ids, flags)),
            None if refs is None else list(itertools.compress(refs, flags)),
            lambda values: values[keep],
        )

    def _joins(self, other: MessageBlock) -> bool:
        """Whether ``other``'s rows can be appended to this block's columns."""
        return (
            self.task_id == other.task_id
            and self.round_index == other.round_index
            and self.size_bytes == other.size_bytes
            and self.metadata == other.metadata
            and (self.payload_refs is None) == (other.payload_refs is None)
            and all(
                (getattr(self, column) is None) == (getattr(other, column) is None)
                for column in _ARRAY_COLUMNS
            )
        )

    @staticmethod
    def coalesce(segments: list[Message | MessageBlock]) -> list[Message | MessageBlock]:
        """Join each run of adjacent compatible blocks into one block.

        FIFO order is preserved: scalar messages, and blocks that differ
        in round, payload size, metadata or column layout, pass through
        where they stand.  This is what lets a rate-limited delivery
        chunk that spans several waves reach the cloud as ONE block.
        """
        if len(segments) < 2:
            return segments
        joined: list[Message | MessageBlock] = []
        run: list[MessageBlock] = []

        def flush() -> None:
            if len(run) > 1:
                head = run[0]
                chain = itertools.chain.from_iterable
                block = head._derive(
                    list(chain(part.device_ids for part in run)),
                    None
                    if head.payload_refs is None
                    else list(chain(part.payload_refs for part in run)),
                )
                for column in _ARRAY_COLUMNS:
                    if getattr(head, column) is not None:
                        setattr(block, column, np.concatenate([getattr(part, column) for part in run]))
                joined.append(block)
            else:
                joined.extend(run)
            run.clear()

        for segment in segments:
            if type(segment) is MessageBlock:
                if run and not run[0]._joins(segment):
                    flush()
                run.append(segment)
            else:
                if run:
                    flush()
                joined.append(segment)
        flush()
        return joined

    def messages(self, created_at: float | None = None) -> list[Message]:
        """Materialize per-device :class:`Message` objects, in block order.

        ``created_at`` overrides every message's arrival stamp; otherwise
        each message inherits its device's ``finished_at`` (falling back
        to the block's own ``created_at``).
        """
        times = self.finished_at
        refs = self.payload_refs
        return [
            Message(
                task_id=self.task_id,
                device_id=device_id,
                round_index=self.round_index,
                payload_ref=(
                    refs[position]
                    if refs is not None
                    else payload_ref(self.task_id, device_id, self.round_index)
                ),
                size_bytes=self.size_bytes,
                created_at=(
                    created_at
                    if created_at is not None
                    else (float(times[position]) if times is not None else self.created_at)
                ),
                n_samples=int(self.n_samples[position]),
                metadata=dict(self.metadata),
            )
            for position, device_id in enumerate(self.device_ids)
        ]
