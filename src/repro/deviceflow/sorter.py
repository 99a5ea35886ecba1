"""The Sorter: routes incoming messages to the right shelf."""

from __future__ import annotations

from repro.deviceflow.messages import MessageBlock
from repro.deviceflow.shelf import Shelf


class Sorter:
    """Receives messages from the compute tiers and shelves them by task.

    "The Sorter module is responsible for receiving messages from
    computational clusters and determining the appropriate Shelf for
    storage based on the task_id within the messages" (§V-A).
    """

    def __init__(self) -> None:
        self._shelves: dict[str, Shelf] = {}
        self.total_routed = 0

    def register_shelf(self, shelf: Shelf) -> None:
        """Attach a task's shelf; one shelf per task id."""
        if shelf.task_id in self._shelves:
            raise ValueError(f"shelf for task {shelf.task_id!r} already registered")
        self._shelves[shelf.task_id] = shelf

    def unregister_shelf(self, task_id: str) -> Shelf:
        """Detach (and return) a task's shelf."""
        if task_id not in self._shelves:
            raise KeyError(f"no shelf registered for task {task_id!r}")
        return self._shelves.pop(task_id)

    def shelf_for(self, task_id: str) -> Shelf:
        """Look up a task's shelf."""
        if task_id not in self._shelves:
            raise KeyError(f"no shelf registered for task {task_id!r}")
        return self._shelves[task_id]

    def route(self, segment: MessageBlock) -> int:
        """Store a block on its task's shelf; returns the messages routed.

        One shelf lookup per segment; ``total_routed`` counts messages
        (rows).
        """
        rows = self.shelf_for(segment.task_id).store(segment)
        self.total_routed += rows
        return rows

    @property
    def task_ids(self) -> list[str]:
        """Registered task ids, sorted."""
        return sorted(self._shelves)
