"""Shared object storage for model payloads and device results."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

import numpy as np


@dataclass
class StoredObject:
    """One stored payload with accounting metadata."""

    key: str
    value: Any
    size_bytes: int
    stored_at: float
    writer: str = ""


class _StoredBlock:
    """Shared metadata of one ``put_block`` call (one object per block)."""

    __slots__ = ("values", "sizes", "times", "writers")

    def __init__(
        self,
        values: Sequence[Any],
        sizes: np.ndarray,
        times: np.ndarray,
        writers: Sequence[str] | str,
    ) -> None:
        self.values = values
        self.sizes = sizes
        self.times = times
        self.writers = writers

    def writer_at(self, position: int) -> str:
        return self.writers if isinstance(self.writers, str) else self.writers[position]


class _BlockSlot:
    """One key's two-field handle into a shared :class:`_StoredBlock`."""

    __slots__ = ("block", "position")

    def __init__(self, block: _StoredBlock, position: int) -> None:
        self.block = block
        self.position = position


class ObjectStorage:
    """A keyed blob store with byte accounting.

    Values are arbitrary Python objects (serialized updates, model
    parameters, dataset shards); ``size_bytes`` feeds the read/write
    counters.  The store itself is instantaneous — the tiers that move
    the data charge the transfer time; durability and placement are out
    of the paper's scope.

    :meth:`put_block` is the one write: a whole columnar round, a wave, or
    one upload as a block of one key (one dict update, vectorized byte
    accounting); reads and heads are per key.
    """

    def __init__(self) -> None:
        self._objects: dict[str, _BlockSlot] = {}
        self.total_bytes_written = 0
        self.total_bytes_read = 0
        self.put_count = 0
        self.get_count = 0

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def put_block(
        self,
        keys: Sequence[str],
        values: Sequence[Any],
        size_bytes: int | np.ndarray,
        *,
        now: float | np.ndarray,
        writers: Sequence[str] | str,
    ) -> int:
        """Store a whole block of payloads in one call; returns the count.

        Accounting is per key (``put_count += n``,
        ``total_bytes_written += sum(sizes)``), but the store performs ONE
        dict update and allocates one shared metadata object plus a
        two-field slot per key — no per-key :class:`StoredObject` until
        someone asks for a :meth:`head`.  ``size_bytes``,
        ``now`` and ``writers`` each accept either one broadcast value or
        a per-key sequence; ``values`` may be any lazy sequence (indexed
        only on :meth:`get`/:meth:`head`).
        """
        n = len(keys)
        if len(values) != n:
            raise ValueError(f"got {n} keys but {len(values)} values")
        if not isinstance(writers, str) and len(writers) != n:
            raise ValueError(f"got {n} keys but {len(writers)} writers")
        if n == 0:
            return 0
        sizes = np.broadcast_to(np.asarray(size_bytes, dtype=np.int64), (n,))
        if sizes.min() < 0:
            raise ValueError("size_bytes must be >= 0")
        times = np.broadcast_to(np.asarray(now, dtype=np.float64), (n,))
        block = _StoredBlock(values, sizes, times, writers)
        self._objects.update(
            (key, _BlockSlot(block, position)) for position, key in enumerate(keys)
        )
        self.total_bytes_written += int(sizes.sum())
        self.put_count += n
        return n

    def get(self, key: str) -> Any:
        """Fetch a payload; raises ``KeyError`` if absent."""
        record = self._objects.get(key)
        if record is None:
            raise KeyError(f"no object stored under {key!r}")
        self.total_bytes_read += int(record.block.sizes[record.position])
        self.get_count += 1
        return record.block.values[record.position]

    def head(self, key: str) -> StoredObject:
        """Metadata of a stored object without a read charge."""
        record = self._objects.get(key)
        if record is None:
            raise KeyError(f"no object stored under {key!r}")
        block, position = record.block, record.position
        return StoredObject(
            key=key,
            value=block.values[position],
            size_bytes=int(block.sizes[position]),
            stored_at=float(block.times[position]),
            writer=block.writer_at(position),
        )

    def keys(self) -> list[str]:
        """All stored keys, sorted."""
        return sorted(self._objects)
