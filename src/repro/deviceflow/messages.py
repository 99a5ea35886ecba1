"""Messages flowing from simulated devices through DeviceFlow to the cloud.

§V-A: "edge devices ... typically upload computation results to storage
upon task completion and transmit messages to cloud services.  Cloud
services then retrieve the corresponding data from storage based on the
received messages."  A message therefore carries a *reference* into shared
storage, not the payload itself.

Segments
--------
The compute tiers submit a :class:`MessageBlock` at a time — a completion
wave, a whole round, or one upload as a block of one row — and DeviceFlow's
shelves and send queues hold *segments*: row ranges of those blocks.  All
the traffic controller needs of a segment is ``task_id``, ``round_index``,
``rows`` (how many messages it stands for), ``device_ids``, slicing
(``segment[lo:hi]``) and :meth:`MessageBlock.compress`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

import numpy as np

#: The per-row array columns of a :class:`MessageBlock`.
_ARRAY_COLUMNS = ("n_samples", "update_weights", "update_biases")


def payload_ref(task_id: str, device_id: str, round_index: int) -> str:
    """The shared-storage key of one device's round result."""
    return f"{task_id}/{device_id}/r{round_index}"


@dataclass
class MessageBlock:
    """Device-to-cloud notifications as one struct-of-arrays block, one row a device.

    One block carries every device of one completion wave of a plan (or
    the whole plan, for direct dispatch; or the single upload a transport
    channel delivers), so DeviceFlow and the cloud services shelve,
    dispatch, transmit and fold the traffic as row ranges — one counter
    bump, one dropout draw, one FedAvg fold — without ever building a
    per-device object.

    A row is a *reference* into shared storage (§V-A); the block
    additionally inlines the stacked update arrays (``update_weights`` /
    ``update_biases``) when the producing plan was numeric — eliding
    per-device storage round-trips is exactly the point of block
    ingestion, and the referenced payloads remain stored (one
    ``put_block``) for any consumer that wants them.

    Row ranges (``block[lo:hi]``) share the parent's arrays; survivor
    selections (:meth:`compress`) and delivery chunks (:meth:`coalesce`)
    copy only the rows they keep.

    Attributes
    ----------
    task_id / round_index:
        Owning task and collaboration round (one block never spans
        rounds — plans emit per round).
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
    created_at: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)
    update_weights: np.ndarray | None = None
    update_biases: np.ndarray | None = None
    #: Messages this segment stands for (``len(device_ids)``, kept as a plain
    #: attribute: the shelf and the dispatcher read it per segment).
    rows: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        n = self.rows = len(self.device_ids)
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
        if self.update_weights is not None and len(self.update_weights) != n:
            raise ValueError(f"got {n} device_ids but {len(self.update_weights)} update rows")
        if self.update_biases is not None and len(self.update_biases) != n:
            raise ValueError(f"got {n} device_ids but {len(self.update_biases)} update biases")

    def __len__(self) -> int:
        return self.rows

    @property
    def total_bytes(self) -> int:
        """Bytes represented by the whole block (bulk accounting)."""
        return self.size_bytes * self.rows

    @property
    def total_samples(self) -> int:
        """Training samples represented by the whole block."""
        return int(self.n_samples.sum()) if self.rows else 0

    # ------------------------------------------------------------------
    # row selection (validated columns are reused, never re-validated)
    # ------------------------------------------------------------------
    def _derive(self, device_ids: Sequence[str], payload_refs, select=None) -> MessageBlock:
        """A block sharing this one's scalar fields, each array column mapped by ``select``."""
        block = MessageBlock.__new__(MessageBlock)
        fields = block.__dict__
        fields.update(self.__dict__)
        fields["device_ids"] = device_ids
        fields["rows"] = len(device_ids)
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
            raise TypeError("a MessageBlock is sliced by row range; one row is block[i : i + 1]")
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

    def _layout(self) -> tuple:
        """What two blocks must share for their rows to sit in one block's columns."""
        return (
            self.task_id,
            self.round_index,
            self.size_bytes,
            self.metadata,
            self.payload_refs is None,
            self.update_weights is None,
            self.update_biases is None,
        )

    @staticmethod
    def coalesce(segments: list[MessageBlock]) -> list[MessageBlock]:
        """Join each run of adjacent compatible blocks into one block.

        FIFO order is preserved: blocks that differ in round, payload
        size, metadata or column layout pass through where they stand.
        This is what lets a rate-limited delivery chunk that spans several
        waves (or many one-row uploads) reach the cloud as ONE block.
        """
        if len(segments) < 2:
            return segments
        joined: list[MessageBlock] = []
        for _, group in itertools.groupby(segments, key=MessageBlock._layout):
            run = list(group)
            head = run[0]
            if len(run) > 1:
                chain = itertools.chain.from_iterable
                head = head._derive(
                    list(chain(part.device_ids for part in run)),
                    None
                    if head.payload_refs is None
                    else list(chain(part.payload_refs for part in run)),
                )
                fields = head.__dict__
                for column in _ARRAY_COLUMNS:
                    if fields[column] is not None:
                        fields[column] = np.concatenate([part.__dict__[column] for part in run])
            joined.append(head)
        return joined
