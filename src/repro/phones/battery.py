"""Battery electrical model: instantaneous readings + energy accounting.

The sysfs nodes PhoneMgr reads (§IV-C) report *instantaneous* current in
microamps and voltage in microvolts; energy per stage is then reconstructed
cloud-side by integrating sampled current over time.  The model keeps an
exact internal integral too, so tests can bound the sampling error.
"""

from __future__ import annotations

import numpy as np

from repro.simkernel.random import NormalReader


class BatteryModel:
    """State of charge, discharge accounting and noisy sensor readings.

    Parameters
    ----------
    capacity_mah:
        Pack capacity.
    nominal_voltage_mv:
        Voltage at mid charge; the terminal voltage sags linearly toward
        ~92% of nominal as the pack empties and with load.
    rng:
        Seeded generator for sensor noise, read through a
        :class:`~repro.simkernel.random.NormalReader`: its only consumer.
    """

    #: Relative standard deviation of current readings (sensor ripple).
    NOISE_FRACTION = 0.05

    def __init__(self, capacity_mah: float, nominal_voltage_mv: float, rng: np.random.Generator) -> None:
        if capacity_mah <= 0:
            raise ValueError("capacity_mah must be positive")
        if nominal_voltage_mv <= 0:
            raise ValueError("nominal_voltage_mv must be positive")
        self.capacity_mah = float(capacity_mah)
        self.nominal_voltage_mv = float(nominal_voltage_mv)
        self.consumed_mah = 0.0
        self._rng = NormalReader(rng)

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction in ``[0, 1]``."""
        return max(0.0, 1.0 - self.consumed_mah / self.capacity_mah)

    def accumulate(self, current_ma: float, duration_s: float) -> float:
        """Integrate a constant draw; returns the mAh consumed."""
        if current_ma < 0:
            raise ValueError("current_ma must be >= 0 (discharge accounting)")
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        consumed = current_ma * duration_s / 3600.0
        self.consumed_mah += consumed
        return consumed

    def current_now_ua(self, mean_current_ma: float) -> int:
        """Instantaneous sysfs ``current_now`` reading in microamps.

        Negative by Android convention: most kernels report discharge
        current as a negative value — the post-processing in PhoneMgr must
        take the magnitude, exactly as real pipelines do.
        """
        if mean_current_ma < 0:
            raise ValueError("mean_current_ma must be >= 0")
        noisy = self._rng.normal(mean_current_ma, self.NOISE_FRACTION * mean_current_ma)
        return -int(round(max(0.0, noisy) * 1000.0))

    def voltage_now_uv(self) -> int:
        """Instantaneous sysfs ``voltage_now`` reading in microvolts.

        Sags by up to 8% of nominal as charge depletes, plus ~2 mV ripple.
        """
        sag = 0.08 * self.nominal_voltage_mv * (1.0 - self.state_of_charge)
        ripple = self._rng.normal(0.0, 2.0)
        return int(round((self.nominal_voltage_mv - sag + ripple) * 1000.0))
