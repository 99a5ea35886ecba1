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
DeviceFlow's shelves and send queues hold *segments*: a :class:`Segment`
is a parent block plus its rows (a ``range``, possibly stepped, or an int64
index), and a :class:`MessageBlock` is the segment of all its rows.  A tier
hands over a wave as (plan block, wave rows), a transport channel an upload
as one row of its per-plan copy (a wave's as :class:`Arrivals`, dated ahead).
Cuts and dropout narrow only the index, and :meth:`MessageBlock.coalesce`
gathers each delivered run with one index per column.  However a block is
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


def join_rows(pieces: Sequence[range | np.ndarray]) -> range | np.ndarray:
    """Row indices ``pieces`` end to end: one ``range`` while ranges continue each other, else one int64 array."""
    merged = []
    for rows in filter(len, pieces):
        last = merged[-1] if merged else None
        if last.__class__ is rows.__class__ is range and rows.step == last.step == rows.start - last[-1]:
            merged[-1] = range(last.start, rows.stop, rows.step)  # adjacent ranges stay one range
        else:
            merged.append(rows)
    if len(merged) < 2:
        return merged[0] if merged else pieces[0]
    # Few rows a piece, mostly: one list of ints, then one array.
    return np.array([row for r in merged for row in (r if r.__class__ is range else r.tolist())])


def row_key(index: range | np.ndarray) -> slice | np.ndarray:
    """``index`` as a NumPy key: a ``range`` is a slice (its rows are a view), an array a fancy index (a copy)."""
    return slice(index.start, index.stop, index.step) if index.__class__ is range else index


@dataclass
class MessageBlock:
    """Device round results as one struct-of-arrays block, one row a device.

    A tier builds a whole plan's round as one block (``finished_at[pos]``
    is the upload-completion time of the device in row ``pos``), and
    everything smaller is a :class:`Segment` of it: a *wave* — the rows
    that finish at one simulated instant — or the upload a transport
    channel delivers (a row of its copy, whose time column is the arrival).
    DeviceFlow and the cloud services shelve, dispatch, transmit and fold
    the traffic as rows — one counter bump, one dropout draw, one FedAvg
    fold — without ever building a per-device object.

    When the producing plan was numeric, the block inlines the stacked
    update arrays (``update_weights`` / ``update_biases``) the cloud folds.

    Row ranges (``block[lo:hi]``) share the parent's arrays; survivor
    selections (:meth:`compress`) and scattered rows a delivery chunk
    gathers (:meth:`coalesce`) copy only the rows they keep.

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
    #: Messages this block stands for (``len(device_ids)``, kept as a plain
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

    #: A block is the segment of all its own rows.
    parent = property(lambda self: self)
    index = property(lambda self: range(self.rows))

    def gather(self) -> MessageBlock:
        return self

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

    def _take(self, index: range | np.ndarray) -> MessageBlock:
        """The rows at ``index``: a view for a ``range``, one fancy index per column for an array."""
        return self._derive(self.device_ids.take(index), row_key(index))

    def __getitem__(self, rows: slice) -> MessageBlock:
        """Zero-copy row range: array columns are views of this block's."""
        if rows.__class__ is not slice:
            raise TypeError("a MessageBlock is sliced by row range; one row is block[i : i + 1]")
        return self._derive(self.device_ids[rows], rows)

    def compress(self, keep: np.ndarray) -> MessageBlock:
        """The rows where the boolean mask ``keep`` is set (dropout survivors)."""
        return self._take(np.flatnonzero(keep))

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
    def coalesce(segments: Sequence[Segment]) -> list[MessageBlock]:
        """One block per run of adjacent compatible segments, in FIFO order.

        Adjacent segments of one parent are gathered with one index per
        column (one ``range`` of rows stays a view); only blocks of
        different parents are joined, and those that differ in round,
        grade, payload size or column layout pass through where they stand.
        """
        if len(segments) == 1:
            return [segments[0].gather()]
        blocks = []
        for _, run in itertools.groupby(segments, key=lambda segment: id(segment.parent)):
            run = list(run)
            blocks.append(run[0].parent._take(join_rows([s.index for s in run])) if len(run) > 1 else run[0].gather())
        if len(blocks) < 2:
            return blocks
        return [MessageBlock._join(list(run)) for _, run in itertools.groupby(blocks, key=MessageBlock._layout)]

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


class Segment:
    """Rows of a parent :class:`MessageBlock`: ``index`` is a ``range`` (possibly stepped) or an int64 array.

    Nothing is copied until :meth:`gather` (or :meth:`MessageBlock.coalesce`)
    builds a block; wherever a segment is taken, a block stands for all its rows.
    """

    __slots__ = ("parent", "index", "rows", "task_id")

    def __init__(self, parent: MessageBlock, index: range | np.ndarray) -> None:
        self.parent, self.index, self.rows, self.task_id = parent, index, len(index), parent.task_id

    def __len__(self) -> int:
        return self.rows

    round_index = property(lambda self: self.parent.round_index)
    device_ids = property(lambda self: self.parent.device_ids.take(self.index))

    def __getattr__(self, name: str):
        """Any other field, read off the block the rows gather into (on each read)."""
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.gather(), name)

    def gather(self) -> MessageBlock:
        """The rows as one block: array columns are views of the parent's for a ``range``, copies for an array."""
        return self.parent._take(self.index)


class Arrivals(Segment):
    """Rows on their way: the parent's time column holds their arrivals, and ``seq`` is the first of the kernel
    sequence numbers reserved for them in row order (a :class:`~repro.deviceflow.shelf.Shelf` lands them by key)."""

    __slots__ = ("seq",)

    def __init__(self, parent: MessageBlock, index: np.ndarray, seq: int) -> None:
        super().__init__(parent, index)
        self.seq = seq


def select(segment: Segment, keep: np.ndarray) -> Segment:
    """The rows of ``segment`` where the boolean mask ``keep`` is set: its parent, a narrower index."""
    index = segment.index
    positions = np.arange(index.start, index.stop, index.step) if index.__class__ is range else index
    return Segment(segment.parent, positions[keep])
