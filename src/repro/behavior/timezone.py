"""Timezone assignment for simulated device populations."""

from __future__ import annotations

import math
from collections.abc import Sequence
from numbers import Real

import numpy as np

#: A coarse population-weighted UTC-offset distribution (hour offsets and
#: relative weights): Asia-heavy, with European and American clusters —
#: the Fig. 3 scenario mixes UTC+8, UTC-6 and UTC-4 devices.
DEFAULT_OFFSET_WEIGHTS: tuple[tuple[int, float], ...] = (
    (-8, 0.03), (-6, 0.06), (-5, 0.07), (-4, 0.04), (-3, 0.04),
    (0, 0.05), (1, 0.10), (2, 0.06), (3, 0.06),
    (5, 0.12), (6, 0.05), (7, 0.06), (8, 0.18), (9, 0.06),
)


class TimezoneMixture:
    """A population's distribution over UTC offsets.

    Parameters
    ----------
    offset_weights:
        ``(utc_offset_hours, weight)`` pairs; weights are normalised.
    """

    def __init__(self, offset_weights: Sequence[tuple[int, float]] = DEFAULT_OFFSET_WEIGHTS) -> None:
        offset_weights = list(offset_weights)
        if not offset_weights:
            raise ValueError("at least one timezone is required")
        offsets = [o for o, _ in offset_weights]
        if not all(isinstance(o, Real) and not isinstance(o, bool) and float(o).is_integer() for o in offsets):
            raise ValueError(f"offsets must be whole hours, got {offsets!r}")
        weights = [w for _, w in offset_weights]
        if not all(0 < w < math.inf for w in weights):  # also false for NaN
            raise ValueError(f"weights must be positive and finite, got {weights!r}")
        self.offsets = np.array(offsets, dtype=np.int32)
        array = np.array(weights, dtype=np.float64)
        self.weights = array / array.sum()

    def offset_fractions(self) -> dict[int, float]:
        """The normalised population share per UTC offset."""
        return {int(o): float(w) for o, w in zip(self.offsets, self.weights)}
