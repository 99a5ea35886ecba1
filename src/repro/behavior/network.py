"""Network-condition profiles for simulated devices.

Fig. 3 shows devices on wifi, GPRS, and flight mode; network condition
determines upload bandwidth, latency and the chance a transmission fails —
the physical grounding of DeviceFlow's dropout probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np


@dataclass(frozen=True)
class NetworkProfile:
    """Connectivity class of a device.

    Attributes
    ----------
    name:
        Profile label.
    bandwidth_bps:
        Sustained uplink throughput (0 = disconnected).
    latency_s:
        Per-transfer latency floor.
    failure_prob:
        Chance an individual upload attempt fails.
    """

    name: str
    bandwidth_bps: float
    latency_s: float
    failure_prob: float

    def __post_init__(self) -> None:
        if self.bandwidth_bps < 0 or self.latency_s < 0:
            raise ValueError(f"invalid network profile {self.name!r}")
        if not 0.0 <= self.failure_prob <= 1.0:
            raise ValueError("failure_prob must be in [0, 1]")


WIFI = NetworkProfile("wifi", bandwidth_bps=40e6 / 8, latency_s=0.02, failure_prob=0.01)
LTE = NetworkProfile("lte", bandwidth_bps=12e6 / 8, latency_s=0.05, failure_prob=0.05)
GPRS = NetworkProfile("gprs", bandwidth_bps=56e3 / 8, latency_s=0.6, failure_prob=0.20)
FLIGHT_MODE = NetworkProfile("flight-mode", bandwidth_bps=0.0, latency_s=0.0, failure_prob=1.0)


class NetworkMixture:
    """A population's distribution over network profiles."""

    def __init__(self, mix: Sequence[tuple[NetworkProfile, float]]) -> None:
        mix = list(mix)
        if not mix:
            raise ValueError("at least one network profile is required")
        weights = [w for _, w in mix]
        if not all(0 < w < math.inf for w in weights):  # also false for NaN
            raise ValueError(f"weights must be positive and finite, got {weights!r}")
        self.profiles = [p for p, _ in mix]
        array = np.array(weights, dtype=np.float64)
        self.weights = array / array.sum()

    def expected_failure_prob(self) -> float:
        """Population-average upload failure probability.

        A principled default for DeviceFlow's per-message dropout ``p``.
        """
        return float(sum(w * p.failure_prob for p, w in zip(self.profiles, self.weights)))
