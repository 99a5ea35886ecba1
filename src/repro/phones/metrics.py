"""Device metric samples taken from a benchmarking phone.

§IV-C: "The information collected typically contains other non-essential
data, requiring post-processing to extract valid data."  Production reads
a sample straight off the virtual sensors (:func:`direct_metric_sample`),
reproducing what that post-processing extracts from raw ADB text.  The
text pipeline itself — the read commands and the parsers that take the
magnitude of the signed microamp reading, the TOTAL-PSS line among heap
breakdowns, the receive+transmit sum over the wlan row — is the test
oracle in ``tests/reference/adb_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        """Current in milliamps (for energy integration)."""
        return self.current_ua / 1000.0

    @property
    def total_bytes(self) -> int:
        """Received plus transmitted bytes, the paper's bandwidth usage."""
        return self.rx_bytes + self.tx_bytes


@dataclass
class StageSummary:
    """Table-I row: per-stage energy, duration and communication."""

    stage: int
    label: str
    power_mah: float
    duration_min: float
    comm_kb: float


def direct_metric_sample(timestamp: float, phone, package: str) -> DeviceMetricSample:
    """One sample read straight off a virtual phone's sensors.

    What the benchmarking sampler runs.  It equals, bit for bit, issuing
    the five raw ADB read commands and parsing their text (the oracle in
    ``tests/reference/adb_reference.py``), including the lossy steps real post-processing performs —
    ``top`` prints %CPU with one decimal (so the parsed value is the
    ``%.1f`` round-trip, not the raw float) — and the exact sensor read
    order, so the phone's noise streams advance identically: ``top``
    consults both CPU and PSS for its table even though the pipeline takes
    memory from ``dumpsys``.
    """
    current_ua = abs(float(phone.current_now_ua()))
    voltage_mv = float(phone.voltage_now_uv()) / 1000.0
    pid = phone.pgrep(package) or 0
    if pid:
        cpu_percent = float(format(phone.cpu_percent(pid), ".1f"))
        phone.memory_pss_kb(phone.running_package or "")  # top's %MEM column
        memory_kb = phone.memory_pss_kb(package)
        rx_bytes, tx_bytes = phone.net_dev_bytes(pid)
    else:
        cpu_percent, memory_kb, rx_bytes, tx_bytes = 0.0, 0, 0, 0
    return DeviceMetricSample(
        timestamp=timestamp,
        serial=phone.serial,
        current_ua=current_ua,
        voltage_mv=voltage_mv,
        cpu_percent=cpu_percent,
        memory_kb=memory_kb,
        rx_bytes=rx_bytes,
        tx_bytes=tx_bytes,
    )


def integrate_energy_mah(samples: list[DeviceMetricSample]) -> float:
    """Trapezoidal mAh estimate from sampled currents.

    This is the cloud-side reconstruction of stage energy: the exact
    integral lives only on the (real or virtual) phone.
    """
    if len(samples) < 2:
        return 0.0
    total = 0.0
    for earlier, later in zip(samples, samples[1:]):
        dt_hours = (later.timestamp - earlier.timestamp) / 3600.0
        if dt_hours < 0:
            raise ValueError("samples must be time-ordered")
        total += 0.5 * (earlier.current_ma + later.current_ma) * dt_hours
    return total
