"""The ADB text read protocol and its post-processing parsers.

§IV-C: PhoneMgr polls its benchmarking devices over ADB, and "the
information collected typically contains other non-essential data,
requiring post-processing to extract valid data".  This is that pipeline
as it stood before the sampler read the sensors directly: the read
commands the paper quotes — battery sysfs, ``top``, ``pgrep``,
``dumpsys`` PSS queries and ``/proc/<pid>/net/dev`` — answered with raw,
realistically-formatted text, a trailing ``| grep`` filter, a ``shlex``
tokeniser that splits each distinct command string once, and the seven
``parse_*`` functions that extract a sample from the text.

:func:`text_shell` answers those reads from the scalar sensor reads of
``reference.sampler_reference`` and hands every other command to the
production :meth:`SimulatedAdb.shell`.  ``tier_reference.py``'s
``ReferencePhoneMgr`` samples through it, and
``tests/test_phone_sampler_properties.py`` / ``test_phone_tier_equivalence.py``
hold ``repro.phones.PhoneMgr``'s one-pass samples to it bit for bit.
:func:`push_duration` is the scalar staging push the per-phone clock
oracles pay.  Do not optimise it.
"""

from __future__ import annotations

import functools
import re
import shlex

from repro.phones import AdbError, DeviceMetricSample, SimulatedAdb, VirtualPhone

from reference import sampler_reference as sensors


@functools.lru_cache(maxsize=256)
def _tokens(command: str) -> tuple[str, ...]:
    """``shlex.split``, once per distinct string (a failure is not kept: it raises again)."""
    try:
        return tuple(shlex.split(command))
    except ValueError as exc:
        raise AdbError(f"/system/bin/sh: {command!r}: {exc}") from exc


def push_duration(adb: SimulatedAdb, serial: str, n_bytes: int) -> float:
    """Seconds an ``adb push`` of ``n_bytes`` takes to this phone."""
    if n_bytes < 0:
        raise AdbError("cannot push a negative payload")
    return n_bytes / adb.phone(serial).spec.network_bandwidth_bps


def text_shell(adb: SimulatedAdb, serial: str, command: str) -> str:
    """Execute an ``adb shell`` command; returns raw stdout text.

    Supports the paper's read commands plus a trailing ``| grep X``
    filter (substring match, like busybox grep with a fixed pattern).
    """
    phone = adb.phone(serial)
    command = command.strip()
    if not command:
        raise AdbError("empty shell command")
    if "|" in command:
        base, _, filter_part = command.partition("|")
        output = _dispatch(adb, phone, base.strip())
        filter_tokens = _tokens(filter_part.strip())
        if not filter_tokens or filter_tokens[0] != "grep":
            raise AdbError(f"unsupported pipeline: {filter_part.strip()!r}")
        pattern = filter_tokens[-1]
        kept = [line for line in output.splitlines() if pattern in line]
        return "\n".join(kept) + ("\n" if kept else "")
    return _dispatch(adb, phone, command)


def _dispatch(adb: SimulatedAdb, phone: VirtualPhone, command: str) -> str:
    tokens = _tokens(command)
    if not tokens:
        raise AdbError("empty shell command")
    read = _READS.get(tokens[0])
    if read is None:
        return adb.shell(phone.serial, command)
    return read(phone, tokens)


def _cat(phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
    if len(tokens) != 2:
        raise AdbError("usage: cat <path>")
    path = tokens[1]
    if path == "/sys/class/power_supply/battery/current_now":
        return f"{sensors.current_now_ua(phone)}\n"
    if path == "/sys/class/power_supply/battery/voltage_now":
        return f"{sensors.voltage_now_uv(phone)}\n"
    if path.startswith("/proc/") and path.endswith("/net/dev"):
        pid_text = path.split("/")[2]
        try:
            pid = int(pid_text)
        except ValueError as exc:
            raise AdbError(f"cat: {path}: invalid pid") from exc
        return _net_dev(phone, pid)
    raise AdbError(f"cat: {path}: No such file or directory")


def _net_dev(phone: VirtualPhone, pid: int) -> str:
    rx, tx = sensors.net_dev_bytes(phone, pid)
    header = (
        "Inter-|   Receive                                                "
        "|  Transmit\n"
        " face |bytes    packets errs drop fifo frame compressed multicast"
        "|bytes    packets errs drop fifo colls carrier compressed\n"
    )
    lo = (
        f"    lo: {4096:>8} {12:>7}    0    0    0     0          0         0 "
        f"{4096:>8} {12:>7}    0    0    0     0       0          0\n"
    )
    rx_packets = max(1, rx // 1400)
    tx_packets = max(1, tx // 1400)
    wlan = (
        f" wlan0: {rx:>8} {rx_packets:>7}    0    0    0     0          0         0 "
        f"{tx:>8} {tx_packets:>7}    0    0    0     0       0          0\n"
    )
    return header + lo + wlan


def _top(phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
    if "-p" not in tokens:
        raise AdbError("top: simulated bridge requires -p <pid>")
    try:
        pid = int(tokens[tokens.index("-p") + 1])
    except (IndexError, ValueError) as exc:
        raise AdbError(f"top: -p needs a numeric pid: {shlex.join(tokens)!r}") from exc
    cpu = sensors.cpu_percent(phone, pid)
    mem_kb = sensors.memory_pss_kb(phone, phone.running_package or "")
    mem_pct = 100.0 * mem_kb / (phone.spec.memory_gb * 1024 * 1024)
    header = (
        f"Tasks: 1 total,   1 running,   0 sleeping,   0 stopped,   0 zombie\n"
        f"  Mem:  {int(phone.spec.memory_gb * 1024 * 1024)}K total\n"
        "  PID USER         PR  NI VIRT  RES  SHR S[%CPU] %MEM     TIME+ ARGS\n"
    )
    if pid != phone.running_pid or phone.running_package is None:
        return header
    row = (
        f"{pid:>5} u0_a217      10 -10 {mem_kb + 9000:>4}K {mem_kb:>4}K {mem_kb // 3:>4}K "
        f"S {cpu:5.1f} {mem_pct:5.1f}   0:42.17 {phone.running_package}\n"
    )
    return header + row


def _pgrep(phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
    if len(tokens) < 3 or tokens[1] != "-f":
        raise AdbError("usage: pgrep -f <pattern>")
    pid = sensors.pgrep(phone, tokens[2])
    return f"{pid}\n" if pid is not None else ""


def _dumpsys(phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
    if len(tokens) < 2:
        raise AdbError("usage: dumpsys <service-or-package>")
    package = tokens[-1]
    pss = sensors.memory_pss_kb(phone, package)
    if pss == 0:
        return f"No process found for: {package}\n"
    # Realistic dumpsys meminfo shape: multiple PSS-bearing lines; the
    # post-processor must pick the TOTAL line.
    return (
        f"Applications Memory Usage (in Kilobytes):\n"
        f"Uptime: 88031337 Realtime: 88031337\n"
        f"** MEMINFO in pid {phone.running_pid} [{package}] **\n"
        f"          Java Heap:     {pss // 4}\n"
        f"        Native Heap:     {pss // 3}\n"
        f"         TOTAL PSS:     {pss}            TOTAL RSS:    {int(pss * 1.4)}\n"
        f"          SwapPss:          0\n"
    )


_READS = {"cat": _cat, "top": _top, "pgrep": _pgrep, "dumpsys": _dumpsys}


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
