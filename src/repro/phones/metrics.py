"""Post-processing of raw ADB output into device metric samples.

§IV-C: "The information collected typically contains other non-essential
data, requiring post-processing to extract valid data."  The parsers here
implement that extraction over the simulated ADB's realistic raw text —
magnitude of the signed microamp reading, the TOTAL-PSS line among heap
breakdowns, receive+transmit summation over the wlan row, and so on.
"""

from __future__ import annotations

import re
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


# ----------------------------------------------------------------------
# raw-output parsers
# ----------------------------------------------------------------------
def parse_current_ua(raw: str) -> float:
    """Magnitude of the sysfs ``current_now`` reading.

    Android kernels commonly report discharge as a negative number; the
    measurement pipeline wants the draw's magnitude.
    """
    text = raw.strip()
    if not text:
        raise ValueError("empty current_now output")
    return abs(float(text))


def parse_voltage_mv(raw: str) -> float:
    """``voltage_now`` is exposed in microvolts; the paper logs mV."""
    text = raw.strip()
    if not text:
        raise ValueError("empty voltage_now output")
    return float(text) / 1000.0


def parse_pgrep_pid(raw: str) -> int | None:
    """First pid from ``pgrep -f`` output, or None when not running."""
    for line in raw.splitlines():
        line = line.strip()
        if line.isdigit():
            return int(line)
    return None


def parse_top_cpu(raw: str, pid: int) -> float:
    """%CPU of ``pid`` from a batch-mode ``top`` table.

    Returns 0.0 when the pid's row is absent (process exited between the
    pgrep and the top call — a real race the pipeline tolerates).
    """
    for line in raw.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == str(pid):
            # Row: PID USER PR NI VIRT RES SHR S %CPU %MEM TIME+ ARGS
            for index, token in enumerate(tokens):
                if token == "S" and index + 1 < len(tokens):
                    return float(tokens[index + 1])
            raise ValueError(f"unrecognised top row: {line!r}")
    return 0.0


_PSS_PATTERN = re.compile(r"TOTAL\s+PSS:\s*(\d+)")


def parse_pss_kb(raw: str) -> int:
    """TOTAL PSS (kB) from ``dumpsys`` output filtered by grep.

    Heap-breakdown lines also mention PSS; only the TOTAL line counts.
    Returns 0 when no process was found.
    """
    match = _PSS_PATTERN.search(raw)
    if match is None:
        return 0
    return int(match.group(1))


def parse_net_dev(raw: str) -> tuple[int, int]:
    """Sum (rx_bytes, tx_bytes) over wlan interfaces in ``/proc/net/dev``.

    The paper: bandwidth "encompasses both received and transmitted data
    that need to be extracted and summed".  Format per interface row:
    ``iface: rx_bytes rx_packets ... (8 cols) tx_bytes tx_packets ...``.
    """
    rx_total = 0
    tx_total = 0
    for line in raw.splitlines():
        if "wlan" not in line:
            continue
        _, _, counters = line.partition(":")
        fields = counters.split()
        if len(fields) < 9:
            raise ValueError(f"malformed /proc/net/dev row: {line!r}")
        rx_total += int(fields[0])
        tx_total += int(fields[8])
    return rx_total, tx_total


def parse_metric_sample(
    timestamp: float,
    serial: str,
    current_raw: str,
    voltage_raw: str,
    top_raw: str,
    pid: int,
    dumpsys_raw: str,
    net_dev_raw: str,
) -> DeviceMetricSample:
    """Assemble one sample from the five raw command outputs."""
    rx, tx = parse_net_dev(net_dev_raw)
    return DeviceMetricSample(
        timestamp=timestamp,
        serial=serial,
        current_ua=parse_current_ua(current_raw),
        voltage_mv=parse_voltage_mv(voltage_raw),
        cpu_percent=parse_top_cpu(top_raw, pid),
        memory_kb=parse_pss_kb(dumpsys_raw),
        rx_bytes=rx,
        tx_bytes=tx,
    )


def direct_metric_sample(timestamp: float, phone, package: str) -> DeviceMetricSample:
    """One sample read straight off a virtual phone's sensors.

    Fast path for simulated fleets: skips the five ADB string round-trips
    of :meth:`PhoneMgr._record_sample` but reproduces their result
    bit-for-bit, including the lossy steps real post-processing performs —
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
