"""The ragged block layout: a block's shards as one stack of rows.

Devices of a block hold different numbers of records, so the numeric
kernel never stacks them as a rectangle.  :class:`RaggedShards`
concatenates the shards once — ``features (R, n_fields)``, ``labels
(R,)`` — and keeps per-device ``lengths`` / ``starts`` plus each row's
owning device; training, scoring and metrics then run as a few array
operations over all ``R`` rows, whatever mix of shard sizes the block
holds.  One device, or the cloud's test set, is a one-segment layout.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.avazu import DeviceDataset


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``[segment.sum() for segment in values split by lengths]``, bit for bit.

    Every length must be >= 1.  A plain ``np.add.reduceat`` is *not*
    ``segment.sum()``: it computes ``first + pairwise(rest)`` while
    ``np.add.reduce`` sums pairwise from zero, and the two round apart
    once a segment holds 9 or more elements.  Putting a zero in front of
    each segment makes ``reduceat`` run exactly ``np.add.reduce``'s
    summation, so a per-device mean is the one its row would compute.
    """
    k = len(lengths)
    headed = np.zeros(len(values) + k, dtype=values.dtype)
    heads = np.zeros(k, dtype=np.intp)
    np.cumsum(lengths[:-1] + 1, out=heads[1:])
    headed[np.arange(len(values)) + np.repeat(np.arange(1, k + 1), lengths)] = values
    return np.add.reduceat(headed, heads)


@dataclass(frozen=True, eq=False)
class RaggedShards:
    """A block's local shards concatenated into one row stack.

    Device ``d`` owns rows ``starts[d] : starts[d] + lengths[d]`` of
    ``features`` / ``labels``; ``owners[r]`` is the device of row ``r``.
    A zero-record shard is a zero-length segment.
    """

    features: np.ndarray
    labels: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray
    owners: np.ndarray

    @classmethod
    def of(cls, datasets: Sequence[DeviceDataset]) -> RaggedShards:
        """The layout of ``datasets`` in block order (no datasets: no rows)."""
        if not datasets:
            return cls.from_segments(np.zeros((0, 0), dtype=np.int32), np.zeros(0, dtype=np.int8), [])
        return cls.from_segments(
            np.concatenate([dataset.features for dataset in datasets]),
            np.concatenate([dataset.labels for dataset in datasets]),
            np.fromiter((dataset.n_samples for dataset in datasets), dtype=np.intp, count=len(datasets)),
        )

    @classmethod
    def from_segments(cls, features: np.ndarray, labels: np.ndarray, lengths: np.ndarray) -> RaggedShards:
        """Stacked rows cut into consecutive segments of ``lengths`` rows."""
        features = np.asarray(features)
        labels = np.asarray(labels)
        lengths = np.asarray(lengths, dtype=np.intp)
        if features.ndim != 2 or labels.ndim != 1 or len(features) != len(labels):
            raise ValueError("features must be (rows, fields) and labels (rows,), aligned")
        if np.any(lengths < 0) or lengths.sum() != len(labels):
            raise ValueError("segment lengths must be >= 0 and cover every row")
        starts = np.cumsum(lengths) - lengths
        owners = np.repeat(np.arange(len(lengths), dtype=np.intp), lengths)
        return cls(features, labels, lengths, starts, owners)

    def __len__(self) -> int:
        return len(self.lengths)

    def shuffled(self, rngs: Sequence[np.random.Generator | None] | None) -> np.ndarray:
        """Row indices in each device's epoch order, device after device.

        Device ``d``'s segment is ``starts[d] + rngs[d].permutation(lengths[d])``
        (shard order where the block or the device has no generator), so
        each generator sees exactly the draws a device training alone
        would make.
        """
        if rngs is None:
            return np.arange(len(self.labels))
        orders = [
            rng.permutation(length) if rng is not None else np.arange(length)
            for rng, length in zip(rngs, self.lengths.tolist())
        ]
        return np.concatenate(orders) + self.starts[self.owners]
