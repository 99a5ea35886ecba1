"""Diurnal device availability and population traffic curves.

Devices participate "only if the user experience remains unaffected"
(§I) — in practice: idle, charging, overnight.  Each device's availability
follows a diurnal curve in *local* time; summing availability across a
timezone mixture produces the population's upload-rate curve over UTC,
which feeds directly into DeviceFlow's time-interval strategy.
"""

from __future__ import annotations

import numpy as np

from repro.behavior.timezone import TimezoneMixture
from repro.checks import is_number
from repro.deviceflow.curves import TrafficCurve


class DiurnalAvailability:
    """Probability a device is eligible to train, by local hour.

    The default shape peaks overnight (devices idle and charging, the
    standard FL eligibility window) with a secondary evening shoulder.

    Parameters
    ----------
    night_peak / evening_peak:
        Local hours of maximum and secondary availability.
    base_level:
        Floor probability at the least-available hour.
    """

    def __init__(
        self,
        night_peak: float = 2.0,
        evening_peak: float = 21.0,
        base_level: float = 0.05,
    ) -> None:
        for name, hour in (("night_peak", night_peak), ("evening_peak", evening_peak)):
            if not (is_number(hour) and 0 <= hour < 24):  # also false for NaN
                raise ValueError(f"{name} must be an hour in [0, 24), got {hour!r}")
        if not (is_number(base_level) and 0.0 <= base_level < 1.0):  # 1: a flat curve, no diurnal shape
            raise ValueError(f"base_level must be in [0, 1), got {base_level!r}")
        self.night_peak = float(night_peak)
        self.evening_peak = float(evening_peak)
        self.base_level = float(base_level)

    def probability(self, local_hour: np.ndarray) -> np.ndarray:
        """Availability probability at local hour(s), in ``[0, 1]``."""
        hour = np.asarray(local_hour, dtype=np.float64) % 24.0
        night = 0.75 * np.exp(-0.5 * (self._circular_delta(hour, self.night_peak) / 2.5) ** 2)
        evening = 0.35 * np.exp(-0.5 * (self._circular_delta(hour, self.evening_peak) / 1.8) ** 2)
        return np.clip(self.base_level + night + evening, 0.0, 1.0)

    @staticmethod
    def _circular_delta(hour: np.ndarray, peak: float) -> np.ndarray:
        delta = np.abs(hour - peak)
        return np.minimum(delta, 24.0 - delta)


def population_traffic_curve(timezones: TimezoneMixture, availability: DiurnalAvailability) -> TrafficCurve:
    """Aggregate upload-rate curve of a timezone-mixed population over UTC.

    For each UTC hour, sums each timezone cluster's availability at its
    local hour, weighted by the cluster's population share.  The result is
    a valid :class:`TrafficCurve` on ``[0, 24)`` — hand it straight to a
    :class:`~repro.deviceflow.strategy.TimeIntervalStrategy` to replay a
    realistic global day of device traffic against cloud services.
    """
    fractions = timezones.offset_fractions()

    def fn(utc_hour: np.ndarray) -> np.ndarray:
        utc_hour = np.asarray(utc_hour, dtype=np.float64)
        total = np.zeros_like(utc_hour)
        for offset, share in fractions.items():
            total += share * availability.probability((utc_hour + offset) % 24.0)
        return total

    return TrafficCurve(fn, (0.0, 24.0), name="population-diurnal")
