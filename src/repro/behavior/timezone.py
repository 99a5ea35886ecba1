"""Timezone assignment for simulated device populations."""

from __future__ import annotations

from collections.abc import Sequence

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
        if any(w <= 0 for _, w in offset_weights):
            raise ValueError("weights must be positive")
        self.offsets = np.array([o for o, _ in offset_weights], dtype=np.int32)
        weights = np.array([w for _, w in offset_weights], dtype=np.float64)
        self.weights = weights / weights.sum()

    def offset_fractions(self) -> dict[int, float]:
        """The normalised population share per UTC offset."""
        return {int(o): float(w) for o, w in zip(self.offsets, self.weights)}
