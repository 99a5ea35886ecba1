"""Device metric samples taken from a benchmarking phone.

§IV-C: "The information collected typically contains other non-essential
data, requiring post-processing to extract valid data."  Production
computes a record's samples as columns in one pass over the virtual
sensors (:meth:`~repro.phones.phone.VirtualPhone.read_sensors`),
reproducing what that post-processing extracts from raw ADB text.  The
text pipeline itself — the read commands and the parsers that take the
magnitude of the signed microamp reading, the TOTAL-PSS line among heap
breakdowns, the receive+transmit sum over the wlan row — is the test
oracle in ``tests/reference/adb_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass
class DeviceMetricSample:
    """One polling-cycle snapshot of a benchmarking device.

    Field units follow the paper: current in µA, voltage in mV, CPU in
    percent, memory in kB, bandwidth (cumulative rx+tx) in bytes.
    """

    timestamp: float
    serial: str
    current_ua: float
    voltage_mv: float
    cpu_percent: float
    memory_kb: int
    rx_bytes: int
    tx_bytes: int

    @property
    def current_ma(self) -> float:
        """Current in milliamps."""
        return self.current_ua / 1000.0

    @property
    def total_bytes(self) -> int:
        """Received plus transmitted bytes, the paper's bandwidth usage."""
        return self.rx_bytes + self.tx_bytes


@dataclass
class SampleColumns:
    """A run of :class:`DeviceMetricSample` s of one phone as one array per field."""

    timestamp: np.ndarray
    current_ua: np.ndarray
    voltage_mv: np.ndarray
    cpu_percent: np.ndarray
    memory_kb: np.ndarray
    rx_bytes: np.ndarray
    tx_bytes: np.ndarray

    @classmethod
    def empty(cls) -> SampleColumns:
        """No samples yet."""
        floats, ints = np.empty(0), np.empty(0, dtype=np.int64)
        return cls(floats, floats, floats, floats, ints, ints, ints)

    def __len__(self) -> int:
        return len(self.timestamp)

    def extended(self, later: SampleColumns) -> SampleColumns:
        """These samples followed by ``later``'s."""
        return SampleColumns(*(np.concatenate((getattr(self, f.name), getattr(later, f.name))) for f in fields(self)))

    def rows(self, serial: str) -> list[DeviceMetricSample]:
        """The samples one object each, taken on phone ``serial``."""
        columns = [getattr(self, f.name).tolist() for f in fields(self)]
        return [DeviceMetricSample(t, serial, *values) for t, *values in zip(*columns)]


@dataclass
class StageSummary:
    """Table-I row: per-stage energy, duration and communication."""

    stage: int
    label: str
    power_mah: float
    duration_min: float
    comm_kb: float


def integrate_energy_mah(timestamps: np.ndarray, current_ua: np.ndarray) -> float:
    """Trapezoidal mAh estimate from sampled currents.

    This is the cloud-side reconstruction of stage energy: the exact
    integral lives only on the (real or virtual) phone.  The trapezoids
    are summed left to right (``np.add.accumulate``, never a pairwise
    reduce: float addition is not associative).
    """
    if len(timestamps) < 2:
        return 0.0
    dt_hours = np.diff(timestamps) / 3600.0
    if (dt_hours < 0).any():
        raise ValueError("samples must be time-ordered")
    current_ma = current_ua / 1000.0
    return float(np.add.accumulate(0.5 * (current_ma[:-1] + current_ma[1:]) * dt_hours)[-1])
