"""FedAvg aggregation (McMahan et al., 2017) as used by the paper.

Besides the flat :func:`fedavg`, this module implements *partial*
aggregation for sharded execution: each worker folds its devices' updates
into a compact :class:`FedAvgPartial` — a ``(weighted_sum, total_samples)``
pair — and the parent merges partials into the new global model.

Partition invariance
--------------------
Floating-point addition is not associative, so naively summing per-shard
sums would make the global weights depend on the shard layout.  The
weighted sum here is therefore accumulated *exactly*: every per-update
product ``n_k * w_k`` is folded into a small error-free expansion of
float64 components (Knuth two-sum, after Shewchuk's adaptive-precision
arithmetic), merging partials concatenates exact values, and the final
per-dimension rounding happens once via ``math.fsum`` (correctly rounded).
Any partition of the same update set — including the trivial one-shard
partition used by the flat :func:`fedavg` — therefore produces
bit-identical global weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np


@dataclass
class ModelUpdate:
    """One device's locally-trained parameters plus aggregation weight.

    Attributes
    ----------
    device_id:
        Producing device.
    round_index:
        Collaboration round the update belongs to.
    weights / bias:
        Locally-trained parameters (full-model FedAvg, as in the paper).
    n_samples:
        Local dataset size; FedAvg weights updates proportionally.  Zero is
        allowed (a device that lost its shard mid-round still reports) and
        contributes nothing to the aggregate.
    metadata:
        Free-form extras (grade, tier, timings) carried to the cloud.
    """

    device_id: str
    round_index: int
    weights: np.ndarray
    bias: float
    n_samples: int
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_samples < 0:
            raise ValueError("n_samples must be >= 0")
        self.weights = np.asarray(self.weights, dtype=np.float64)

    def payload_bytes(self) -> int:
        """Wire size of this update (weights + bias + small envelope)."""
        return int(self.weights.nbytes + 8 + 64)

    @staticmethod
    def wire_size(feature_dim: int) -> int:
        """:meth:`payload_bytes` of an update with ``feature_dim`` weights.

        The batched execution tiers size their uploads from the plan's
        dimensionality without materializing update objects; this is the
        single source of truth for the float64-weights + bias + envelope
        wire format.
        """
        return int(feature_dim * 8 + 8 + 64)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's branch-free TwoSum: ``a + b`` plus its exact rounding error."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


class _ExactVectorSum:
    """Error-free running sum of float64 vectors.

    The value is represented as a list of float64 component vectors whose
    per-dimension mathematical sum is *exactly* the sum of everything added
    so far — each :meth:`add` threads the new vector through the existing
    components with TwoSum, which never loses a bit.  Because the value is
    exact, it is independent of insertion order and of how the summands
    were grouped, which is what makes sharded FedAvg partition-invariant.
    """

    __slots__ = ("components",)

    #: Distill the expansion once it grows past this many components.
    _MAX_COMPONENTS = 32

    def __init__(self, components: list[np.ndarray] | None = None) -> None:
        self.components: list[np.ndarray] = list(components or [])

    def add(self, vector: np.ndarray) -> None:
        """Fold one float64 vector into the exact sum."""
        carry = vector
        survivors: list[np.ndarray] = []
        for component in self.components:
            carry, err = _two_sum(carry, component)
            if np.any(err):
                survivors.append(err)
        survivors.append(carry)
        self.components = survivors
        if len(self.components) > self._MAX_COMPONENTS:
            self._distill()

    def add_rows(self, rows: np.ndarray) -> None:
        """Fold every row of an ``(n, dim)`` array into the exact sum.

        Equivalent to ``for row in rows: self.add(row)`` but runs the
        accumulation across 64 independent lanes (row ``i`` goes to lane
        ``i % 64``), so the per-row Python loop collapses into
        ``n / 64`` vectorized TwoSum sweeps.  Lane sums are then folded
        into the scalar expansion one by one — every step is an exact
        TwoSum, so the represented value (the only thing rounding ever
        sees) is independent of the lane layout.
        """
        rows = np.asarray(rows, dtype=np.float64)
        n_rows = len(rows)
        lanes = 64
        if n_rows < 2 * lanes:
            for row in rows:
                self.add(row)
            return
        steps = -(-n_rows // lanes)
        padded = np.zeros((steps * lanes, rows.shape[1]), dtype=np.float64)
        padded[:n_rows] = rows
        stacked = padded.reshape(steps, lanes, rows.shape[1])

        def fold(batch: np.ndarray, components: list[np.ndarray]) -> list[np.ndarray]:
            carry = batch
            survivors = []
            for component in components:
                carry, err = _two_sum(carry, component)
                if np.any(err):
                    survivors.append(err)
            survivors.append(carry)
            return survivors

        lane_components: list[np.ndarray] = []
        for step in range(steps):
            lane_components = fold(stacked[step], lane_components)
            # With dense random signs every TwoSum leaves a nonzero error
            # somewhere in the (lanes, dim) batch, so without compression
            # the expansion grows by one component per step (quadratic
            # TwoSums overall).  Re-folding it into itself preserves the
            # represented value exactly and collapses it back to a few
            # near-nonoverlapping components.
            if len(lane_components) > 8:
                refolded: list[np.ndarray] = []
                for component in lane_components:
                    refolded = fold(component, refolded)
                lane_components = refolded
        for component in lane_components:
            for lane_row in component:
                self.add(lane_row)

    def _distill(self) -> None:
        """Re-fold the components into themselves (value-preserving)."""
        components, self.components = self.components, []
        for component in components:
            self.add(component)

    def merge(self, other: _ExactVectorSum) -> None:
        """Fold another exact sum in (still exact)."""
        for component in other.components:
            self.add(component)

    def round_to_float64(self, dim: int) -> np.ndarray:
        """The correctly-rounded float64 value of the exact sum."""
        if not self.components:
            return np.zeros(dim, dtype=np.float64)
        stacked = np.stack(self.components)
        return np.array(
            [math.fsum(stacked[:, i]) for i in range(stacked.shape[1])],
            dtype=np.float64,
        )


@dataclass
class FedAvgPartial:
    """Per-shard fold of a set of updates: exact weighted sum + counters.

    ``components`` is an ``(m, dim + 1)`` float64 array — the error-free
    expansion of ``sum_k n_k * [w_k | b_k]`` (bias in the last column).
    ``dim`` is ``-1`` for an empty partial (no updates seen yet), so empty
    shards merge cleanly with any weight shape.
    """

    components: np.ndarray
    total_samples: int
    n_updates: int
    dim: int

    @classmethod
    def empty(cls) -> FedAvgPartial:
        """The identity element of :meth:`merge`."""
        return cls(components=np.zeros((0, 0)), total_samples=0, n_updates=0, dim=-1)

    @classmethod
    def from_updates(cls, updates: Iterable[ModelUpdate]) -> FedAvgPartial:
        """Fold an update iterable; shape-checks like flat :func:`fedavg`."""
        updates = list(updates)
        if not updates:
            return cls.empty()
        dims = {update.weights.shape for update in updates}
        if len(dims) != 1:
            raise ValueError(f"updates disagree on weight shape: {dims}")
        shape = dims.pop()
        if len(shape) != 1:
            raise ValueError(f"update weights must be 1-D, got shape {shape}")
        (dim,) = shape
        stacked = np.empty((len(updates), dim + 1), dtype=np.float64)
        samples = np.empty(len(updates), dtype=np.float64)
        for row, update in enumerate(updates):
            stacked[row, :dim] = update.weights
            stacked[row, dim] = update.bias
            samples[row] = float(update.n_samples)
        return cls._from_stacked(
            stacked, samples, int(sum(u.n_samples for u in updates)), len(updates)
        )

    @classmethod
    def from_arrays(
        cls, weights: np.ndarray, biases: np.ndarray, n_samples: np.ndarray
    ) -> FedAvgPartial:
        """Fold columnar updates: ``weights (k, dim)``, ``biases (k,)``, ``n_samples (k,)``.

        Produces the same partial as :meth:`from_updates` over the
        row-by-row :class:`ModelUpdate` equivalents.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be 2-D (updates x dim)")
        if len(weights) == 0:
            return cls.empty()
        if np.any(np.asarray(n_samples) < 0):
            raise ValueError("n_samples must be >= 0")
        stacked = np.column_stack([weights, np.asarray(biases, dtype=np.float64)])
        samples = np.asarray(n_samples, dtype=np.float64)
        return cls._from_stacked(stacked, samples, int(np.sum(n_samples)), len(weights))

    @classmethod
    def _from_stacked(
        cls, stacked: np.ndarray, samples: np.ndarray, total: int, count: int
    ) -> FedAvgPartial:
        # The per-update product rounds once (elementwise, so identical for
        # any grouping of updates into partials); the running sum is exact.
        products = stacked * samples[:, None]
        accumulator = _ExactVectorSum()
        accumulator.add_rows(products)
        components = (
            np.stack(accumulator.components)
            if accumulator.components
            else np.zeros((0, stacked.shape[1]))
        )
        return cls(
            components=components,
            total_samples=total,
            n_updates=count,
            dim=stacked.shape[1] - 1,
        )

    @staticmethod
    def merge(partials: Sequence["FedAvgPartial"]) -> FedAvgPartial:
        """Fold shard partials into one (exact, hence order-independent)."""
        filled = [p for p in partials if p.dim >= 0]
        if not filled:
            return FedAvgPartial.empty()
        dims = {p.dim for p in filled}
        if len(dims) != 1:
            raise ValueError(f"partials disagree on weight dimension: {dims}")
        accumulator = _ExactVectorSum()
        for partial in filled:
            accumulator.merge(_ExactVectorSum(list(partial.components)))
        components = (
            np.stack(accumulator.components)
            if accumulator.components
            else np.zeros((0, filled[0].dim + 1))
        )
        return FedAvgPartial(
            components=components,
            total_samples=sum(p.total_samples for p in filled),
            n_updates=sum(p.n_updates for p in filled),
            dim=filled[0].dim,
        )

    def finalize(self) -> tuple[np.ndarray, float]:
        """Correctly-rounded ``(weights, bias)`` of the weighted average."""
        if self.n_updates == 0:
            raise ValueError("cannot finalize an empty FedAvg partial")
        if self.total_samples <= 0:
            raise ValueError("fedavg requires a positive total sample count")
        summed = _ExactVectorSum(list(self.components)).round_to_float64(self.dim + 1)
        averaged = summed / float(self.total_samples)
        return averaged[:-1], float(averaged[-1])


def fedavg(updates: Iterable[ModelUpdate]) -> tuple[np.ndarray, float]:
    """Sample-weighted average of model updates.

    Implements ``w = sum_k p_k w_k`` with ``p_k`` proportional to each
    client's dataset size, the exact optimisation objective of §II-A.
    Computed through :class:`FedAvgPartial`, so a flat call is bit-identical
    to merging per-shard partials over any partition of ``updates``.
    """
    updates = list(updates)
    if not updates:
        raise ValueError("fedavg requires at least one update")
    return FedAvgPartial.from_updates(updates).finalize()


class FedAvgAggregator:
    """Stateful accumulator used by the cloud aggregation service.

    Updates stream in (possibly shaped by DeviceFlow); :meth:`aggregate`
    folds everything received so far into a new global model and resets
    the buffer for the next round.  Sharded workers call :meth:`partial`
    instead and ship the compact result to the parent, which folds shard
    partials with :meth:`merge`.
    """

    def __init__(self) -> None:
        self._pending: list[ModelUpdate] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending_samples(self) -> int:
        """Total training samples represented by buffered updates."""
        return sum(update.n_samples for update in self._pending)

    @property
    def pending_devices(self) -> list[str]:
        """Device ids with a buffered update, in arrival order."""
        return [update.device_id for update in self._pending]

    def add(self, update: ModelUpdate) -> None:
        """Buffer one incoming update."""
        if not isinstance(update, ModelUpdate):
            raise TypeError(f"expected ModelUpdate, got {type(update).__name__}")
        self._pending.append(update)

    def aggregate(self) -> tuple[np.ndarray, float, int]:
        """Fold the buffer; returns ``(weights, bias, n_updates)``.

        Raises ``ValueError`` when nothing is buffered — callers (the
        aggregation triggers) are expected to check :meth:`__len__` first.
        """
        weights, bias = fedavg(self._pending)
        count = len(self._pending)
        self._pending.clear()
        return weights, bias, count

    def partial(self) -> FedAvgPartial:
        """Fold the buffer into a shippable partial and clear it.

        Unlike :meth:`aggregate` this is total: an empty buffer yields the
        empty partial, so shards without numeric devices merge cleanly.
        """
        result = FedAvgPartial.from_updates(self._pending)
        self._pending.clear()
        return result

    @staticmethod
    def merge(partials: Sequence[FedAvgPartial]) -> tuple[np.ndarray, float, int]:
        """Merge shard partials; returns ``(weights, bias, n_updates)``.

        Bit-identical to :meth:`aggregate` over the concatenated update
        set, for *any* partition of the updates into partials.
        """
        merged = FedAvgPartial.merge(partials)
        weights, bias = merged.finalize()
        return weights, bias, merged.n_updates
