"""Shelves: per-task FIFO buffers inside DeviceFlow."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.deviceflow.messages import Segment


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
        need = min(count, self._rows)
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
        return self.take(self._rows)


class Shelf(SegmentQueue):
    """Buffers one task's pending messages until its Dispatcher releases them.

    "The Dispatcher modules associated with different Shelf modules operate
    independently, ensuring that the dispatch processes of different tasks
    remain isolated and do not interfere" (§V-A) — isolation falls out of
    one shelf (and one dispatcher) per task id.
    """

    def __init__(self, task_id: str) -> None:
        if not task_id:
            raise ValueError("task_id must be non-empty")
        super().__init__()
        self.task_id = task_id
        self.total_stored = 0

    def store(self, segment: Segment) -> int:
        """Append a segment (validated against the shelf's task).

        Returns the number of messages stored (an empty segment stores nothing).
        """
        if segment.task_id != self.task_id:
            raise ValueError(
                f"message for task {segment.task_id!r} stored on shelf {self.task_id!r}"
            )
        rows = segment.rows
        if rows:
            self._segments.append(segment)
            self._rows += rows
            self.total_stored += rows
        return rows

    def peek_oldest(self) -> Segment | None:
        """Oldest buffered message (a one-row segment) without removing it."""
        head = self._segments[0] if self._segments else None
        return None if head is None else Segment(head.parent, head.index[self._offset : self._offset + 1])
