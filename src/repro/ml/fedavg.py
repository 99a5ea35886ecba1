"""FedAvg aggregation (McMahan et al., 2017) as used by the paper.

:class:`FedAvgPartial` folds stacked update rows into the sample-weighted
average ``w = sum_k p_k w_k`` with ``p_k`` proportional to each client's
dataset size, the optimisation objective of §II-A.

Partition invariance
--------------------
Floating-point addition is not associative, so a naive running sum would
make the global weights depend on the order uploads reach the cloud and
on how they were cut into blocks.  The weighted sum here is therefore
accumulated *exactly*: every per-update product ``n_k * w_k`` is folded
into a small error-free expansion of float64 components (Knuth two-sum,
after Shewchuk's adaptive-precision arithmetic), and the final
per-dimension rounding happens once via ``math.fsum`` (correctly rounded).
Any ordering and any grouping of the same update rows therefore produces
bit-identical global weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.checks import check_non_negative_int


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
        check_non_negative_int("n_samples", self.n_samples)
        self.weights = np.asarray(self.weights, dtype=np.float64)

    @staticmethod
    def wire_size(feature_dim: int) -> int:
        """Wire size of an update with ``feature_dim`` weights.

        The execution tiers size their uploads from the plan's
        dimensionality without building update objects; this is the single
        source of truth for the float64-weights + bias + small-envelope
        wire format.
        """
        return int(feature_dim * 8 + 8 + 64)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's branch-free TwoSum: ``a + b`` plus its exact rounding error."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _fold(batch: np.ndarray, components: list[np.ndarray]) -> list[np.ndarray]:
    """Thread ``batch`` through an expansion with TwoSum; zero errors are dropped."""
    carry = batch
    survivors = []
    for component in components:
        carry, err = _two_sum(carry, component)
        if np.any(err):
            survivors.append(err)
    survivors.append(carry)
    return survivors


def _compressed(components: list[np.ndarray]) -> list[np.ndarray]:
    """The expansion, re-folded into itself once it holds more than 8 components.

    With dense random signs every TwoSum leaves a nonzero error somewhere
    in a lane batch, so without compression an expansion grows by one
    component per fold (quadratic TwoSums overall).  Re-folding preserves
    the represented value exactly and collapses it back to a few
    near-nonoverlapping components.
    """
    if len(components) <= 8:
        return components
    refolded: list[np.ndarray] = []
    for component in components:
        refolded = _fold(component, refolded)
    return refolded


class _ExactVectorSum:
    """Error-free running sum of float64 vectors.

    The value is represented as a list of float64 component vectors whose
    per-dimension mathematical sum is *exactly* the sum of everything added
    so far — each :meth:`add` threads the new vector through the existing
    components with TwoSum, which never loses a bit.  Because the value is
    exact, it is independent of insertion order and of how the summands
    were grouped, which is what makes FedAvg partition-invariant.
    """

    __slots__ = ("components",)

    #: Re-fold the expansion into itself once it grows past this many components.
    _MAX_COMPONENTS = 32

    def __init__(self, components: list[np.ndarray] | None = None) -> None:
        self.components: list[np.ndarray] = list(components or [])

    def add(self, vector: np.ndarray) -> None:
        """Fold one float64 vector into the exact sum."""
        self.components = _fold(vector, self.components)
        if len(self.components) > self._MAX_COMPONENTS:
            self.components = _compressed(self.components)

    def add_rows(self, rows: np.ndarray) -> None:
        """Fold every row of an ``(n, dim)`` array into the exact sum.

        Equivalent to ``for row in rows: self.add(row)`` but runs the
        accumulation across 64 independent lanes (row ``i`` goes to lane
        ``i % 64``), so the per-row Python loop collapses into
        ``n / 64`` vectorized TwoSum sweeps.  The lanes then halve as a
        tree, 64 -> 32 -> ... -> 1, each level folding the upper half of
        every lane component into the lower half with vectorized TwoSums,
        and the few one-lane components left join the scalar expansion.
        Every step is an exact TwoSum, so the represented value (the only
        thing rounding ever sees) is independent of the lane layout.
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
        lane_components: list[np.ndarray] = []
        for step in range(steps):
            lane_components = _compressed(_fold(stacked[step], lane_components))
        while lanes > 1:
            lanes //= 2
            halved = [component[:lanes] for component in lane_components]
            for component in lane_components:
                halved = _fold(component[lanes:], halved)
            lane_components = _compressed(halved)
        for component in lane_components:
            self.add(component[0])

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
    """Fold of a set of updates: exact weighted sum + counters.

    ``components`` is an ``(m, dim + 1)`` float64 array — the error-free
    expansion of ``sum_k n_k * [w_k | b_k]`` (bias in the last column).
    """

    components: np.ndarray
    total_samples: int
    n_updates: int
    dim: int

    @classmethod
    def from_arrays(
        cls, weights: np.ndarray, biases: np.ndarray, n_samples: np.ndarray
    ) -> FedAvgPartial:
        """Fold columnar updates: ``weights (k, dim)``, ``biases (k,)``, ``n_samples (k,)``."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be 2-D (updates x dim)")
        if np.any(np.asarray(n_samples) < 0):
            raise ValueError("n_samples must be >= 0")
        stacked = np.column_stack([weights, np.asarray(biases, dtype=np.float64)])
        # The per-update product rounds once (elementwise, so identical for
        # any grouping of updates into blocks); the running sum is exact.
        products = stacked * np.asarray(n_samples, dtype=np.float64)[:, None]
        accumulator = _ExactVectorSum()
        accumulator.add_rows(products)
        components = (
            np.stack(accumulator.components)
            if accumulator.components
            else np.zeros((0, stacked.shape[1]))
        )
        return cls(
            components=components,
            total_samples=int(np.sum(n_samples)),
            n_updates=len(weights),
            dim=weights.shape[1],
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
