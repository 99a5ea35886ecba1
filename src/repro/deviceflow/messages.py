"""The one row format between a device and the cloud fold.

§V-A: "edge devices ... typically upload computation results to storage
upon task completion and transmit messages to cloud services.  Cloud
services then retrieve the corresponding data from storage based on the
received messages."  A row is that record in all four hands — a device's
round result, the message announcing it, what DeviceFlow shapes, what the
cloud folds — so a tier builds a :class:`MessageBlock` once per plan and
round and everything downstream passes row ranges of it along.  A row
carries its payload inline: the storage hop charged no simulated time and
nothing read a stored result back, so it is not modelled.

Segments
--------
The compute tiers submit a :class:`MessageBlock` at a time — a completion
wave, a whole round, or one upload as a block of one row — and DeviceFlow's
shelves and send queues hold *segments*: row ranges of those blocks.  All
the traffic controller needs of a segment is ``task_id``, ``round_index``,
``rows`` (how many messages it stands for), ``device_ids``, slicing
(``segment[lo:hi]``) and :meth:`MessageBlock.compress`.  However a block is
cut, its ids are rows of its plan's id table, and no cut renders a name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

#: The per-row array columns of a :class:`MessageBlock`; all but
#: ``n_samples`` are optional.
_ARRAY_COLUMNS = ("n_samples", "finished_at", "update_weights", "update_biases")

_new = object.__new__


@dataclass
class MessageBlock:
    """Device round results as one struct-of-arrays block, one row a device.

    A tier builds a whole plan's round as one block (``finished_at[pos]``
    is the upload-completion time of the device in row ``pos``), and
    everything smaller is a row range of it: a *wave* — the rows that
    finish at one simulated instant — the single upload a transport channel
    delivers (its time column is the arrival), the one-row block of a
    benchmarking phone.  DeviceFlow and the cloud services shelve,
    dispatch, transmit and fold the traffic as row ranges — one counter
    bump, one dropout draw, one FedAvg fold — without ever building a
    per-device object.

    When the producing plan was numeric, the block inlines the stacked
    update arrays (``update_weights`` / ``update_biases``) the cloud folds.

    Row ranges (``block[lo:hi]``) share the parent's arrays; survivor
    selections (:meth:`compress`) and delivery chunks (:meth:`coalesce`)
    copy only the rows they keep.

    Attributes
    ----------
    task_id / round_index:
        Owning task and collaboration round (one block never spans
        rounds — plans emit per round).
    device_ids:
        Producing devices, in block order, as an :class:`~repro.cluster.rounds.IdColumn` (a list is wrapped).
    grade:
        Device grade of every row (a plan has one grade, so a block does).
    size_bytes:
        Per-device payload size (one number covers every device of a grade).
    n_samples:
        Per-device training-sample counts (``(n,)`` int array).
    finished_at:
        Optional per-device completion times (``(n,)`` float array): the
        tiers always set it, traffic fed to DeviceFlow by hand need not.
    update_weights / update_biases:
        Optional stacked model updates (``(n, dim)`` / ``(n,)``) for
        numeric rounds; ``None`` for time-only traffic.
    """

    task_id: str
    round_index: int
    device_ids: Sequence[str]
    grade: str = ""
    size_bytes: int = 0
    n_samples: np.ndarray | None = None
    finished_at: np.ndarray | None = None
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
        from repro.cluster.rounds import IdColumn  # not at the top: the rounds module imports this one
        self.device_ids = IdColumn.of(self.device_ids)
        n = self.rows = len(self.device_ids)
        if self.n_samples is None:
            self.n_samples = np.ones(n, dtype=np.int64)
        else:
            self.n_samples = np.asarray(self.n_samples, dtype=np.int64)
        for column in _ARRAY_COLUMNS:
            values = self.__dict__[column]
            if values is not None and len(values) != n:
                raise ValueError(f"got {n} device_ids but {len(values)} {column} rows")
        if n and self.n_samples.min() <= 0:
            raise ValueError("n_samples must be positive")

    def __len__(self) -> int:
        return self.rows

    @property
    def total_bytes(self) -> int:
        """Bytes represented by the whole block (bulk accounting)."""
        return self.size_bytes * self.rows

    # ------------------------------------------------------------------
    # row selection (validated columns are reused, never re-validated)
    # ------------------------------------------------------------------
    def _derive(self, device_ids: Sequence[str], index: slice | np.ndarray) -> MessageBlock:
        """A block sharing this one's scalar fields: ``device_ids``, and each array column it carries at ``index``."""
        fields = self.__dict__.copy()
        fields["device_ids"] = device_ids
        fields["rows"] = len(device_ids)
        for column in _ARRAY_COLUMNS:
            values = fields[column]
            if values is not None:
                fields[column] = values[index]
        block = _new(MessageBlock)
        block.__dict__ = fields
        return block

    def __getitem__(self, rows: slice) -> MessageBlock:
        """Zero-copy row range: array columns are views of this block's."""
        if rows.__class__ is not slice:
            raise TypeError("a MessageBlock is sliced by row range; one row is block[i : i + 1]")
        return self._derive(self.device_ids[rows], rows)

    def compress(self, keep: np.ndarray) -> MessageBlock:
        """The rows where the boolean mask ``keep`` is set (dropout survivors)."""
        return self._derive(self.device_ids.select(keep), keep)

    def _layout(self) -> tuple:
        """What two blocks must share for their rows to sit in one block's columns."""
        return (
            self.task_id,
            self.round_index,
            self.grade,
            self.size_bytes,
            self.finished_at is None,
            self.update_weights is None,
            self.update_biases is None,
        )

    @staticmethod
    def coalesce(segments: list[MessageBlock]) -> list[MessageBlock]:
        """Join each run of adjacent compatible blocks into one block.

        FIFO order is preserved: blocks that differ in round, grade,
        payload size or column layout pass through where they stand.
        This is what lets a rate-limited delivery chunk that spans several
        waves (or many one-row uploads) reach the cloud as ONE block.
        """
        if len(segments) < 2:
            return segments
        return [MessageBlock._join(list(run)) for _, run in itertools.groupby(segments, key=MessageBlock._layout)]

    @staticmethod
    def _join(run: list[MessageBlock]) -> MessageBlock:
        """The rows of compatible blocks ``run`` in one block (the one block itself when alone)."""
        head = run[0]
        if len(run) == 1:
            return head
        block = head._derive(head.device_ids.join([part.device_ids for part in run[1:]]), slice(None))
        for column in _ARRAY_COLUMNS:
            if block.__dict__[column] is not None:
                block.__dict__[column] = np.concatenate([part.__dict__[column] for part in run])
        return block
