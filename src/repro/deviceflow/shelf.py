"""Shelves: per-task FIFO buffers inside DeviceFlow."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import pairwise

import numpy as np

from repro.deviceflow.messages import Arrivals, MessageBlock, Segment
from repro.simkernel import Simulator


class SegmentQueue:
    """A row-counted FIFO of segments (:class:`Segment`; a whole block is one).

    The one storage representation behind both the :class:`Shelf` and
    the Dispatcher's send queue.  ``len`` is the number of *rows*
    (messages) buffered; :meth:`take` removes the oldest rows as whole
    segments, cutting a segment's index only where the requested count
    ends inside it.
    """

    def __init__(self) -> None:
        self._segments: deque[Segment] = deque()
        self._rows = 0
        #: Rows of the head segment already taken (a split leaves the head whole).
        self._offset = 0

    def __len__(self) -> int:
        return self._rows

    def extend(self, segments: Iterable[Segment], rows: int) -> None:
        """Buffer several segments totalling ``rows`` rows."""
        self._segments.extend(segments)
        self._rows += rows

    def take(self, count: int) -> list[Segment]:
        """Remove and return up to ``count`` oldest rows, as segments."""
        if count < 0:
            raise ValueError("count must be >= 0")
        segments = self._segments
        need = min(count, len(self))
        self._rows -= need
        taken: list[Segment] = []
        offset = self._offset
        while need:
            head = segments[0]
            left = head.rows - offset
            if left <= need:
                segments.popleft()
                taken.append(Segment(head.parent, head.index[offset:]) if offset else head)
                need -= left
                offset = 0
            else:
                taken.append(Segment(head.parent, head.index[offset : offset + need]))
                offset += need
                need = 0
        self._offset = offset
        return taken

    def take_all(self) -> list[Segment]:
        """Drain the queue."""
        return self.take(len(self))


class Shelf(SegmentQueue):
    """Buffers one task's pending messages until its Dispatcher releases them.

    "The Dispatcher modules associated with different Shelf modules operate
    independently, ensuring that the dispatch processes of different tasks
    remain isolated and do not interfere" (§V-A) — isolation falls out of
    one shelf (and one dispatcher) per task id.

    Rows handed over ahead (:class:`~repro.deviceflow.messages.Arrivals`) wait as
    columns: every read and store first lands, in key order, those whose
    ``(arrival, seq)`` the kernel's ``(now, seq)`` has reached — the shelf one
    store per arrival event would have built, ties included.
    """

    def __init__(self, task_id: str, sim: Simulator) -> None:
        if not task_id:
            raise ValueError("task_id must be non-empty")
        super().__init__()
        self.task_id, self.sim, self._stored = task_id, sim, 0
        #: Rows ahead, as (id of parent, row, arrival, seq) columns a hand-over, and their parents by id.
        self._ahead: list[tuple[np.ndarray, ...]] = []
        self._parents: dict[int, MessageBlock] = {}

    def __len__(self) -> int:
        self._land()
        return self._rows

    total_stored = property(lambda self: self._land() or self._stored, doc="Messages received (landed) so far.")

    def store(self, segment: Segment) -> int:
        """Append a segment (validated against the shelf's task), or keep :class:`Arrivals` until they land.

        Returns the number of messages stored (an empty segment stores nothing).
        """
        if segment.task_id != self.task_id:
            raise ValueError(
                f"message for task {segment.task_id!r} stored on shelf {self.task_id!r}"
            )
        rows, parent, index = segment.rows, segment.parent, segment.index
        if rows and segment.__class__ is Arrivals:
            self._parents[id(parent)] = parent
            seqs = segment.seq + np.arange(rows)
            self._ahead.append((np.full(rows, id(parent)), index, parent.finished_at[index], seqs))
        elif rows:
            self._land()
            self._segments.append(segment)
            self._rows += rows
            self._stored += rows
        return rows

    def _land(self) -> None:
        """Shelve the rows ahead whose key the kernel's has reached, in key order."""
        if not self._ahead:
            return
        owners, index, times, seqs = (np.concatenate(column) for column in zip(*self._ahead))
        order = np.lexsort((seqs, times))
        owners, index, times, seqs = (column[order] for column in (owners, index, times, seqs))
        due = int(np.count_nonzero((times < self.sim.now) | ((times == self.sim.now) & (seqs <= self.sim.seq))))
        self._ahead = [(owners[due:], index[due:], times[due:], seqs[due:])] if due < len(index) else []
        if due:  # one segment a run of one parent
            cuts = (np.flatnonzero(owners[1:due] != owners[: due - 1]) + 1).tolist()
            self._segments.extend(Segment(self._parents[owners[i]], index[i:j]) for i, j in pairwise([0, *cuts, due]))
            self._rows += due
            self._stored += due
        if not self._ahead:
            self._parents = {}

    def peek_oldest(self) -> Segment | None:
        """Oldest buffered message (a one-row segment) without removing it."""
        head = self._segments[0] if len(self) else None
        return None if head is None else Segment(head.parent, head.index[self._offset : self._offset + 1])
