"""A simulated Android Debug Bridge.

"PhoneMgr performs various operations and interface management for
physical devices, primarily relying on ADB commands" (§IV-C).  This module
answers exactly the command set the paper quotes — battery sysfs reads,
``top``, ``pgrep``, ``dumpsys`` PSS queries and ``/proc/<pid>/net/dev`` —
with raw, realistically-formatted text: the paper stresses that "the
information collected typically contains other non-essential data,
requiring post-processing to extract valid data", and the fidelity of that
post-processing is part of what the reproduction exercises.  A command the
bridge cannot read is an :class:`AdbError` quoting it, and a command string
is tokenised once however many phones and polls repeat it.
"""

from __future__ import annotations

import functools
import shlex
from collections.abc import Sequence

import numpy as np

from repro.phones.apk import TrainingApk
from repro.phones.phone import VirtualPhone


class AdbError(RuntimeError):
    """Raised for unknown serials, commands, or device-side failures."""


@functools.lru_cache(maxsize=256)
def _tokens(command: str) -> tuple[str, ...]:
    """``shlex.split``, once per distinct string (a failure is not kept: it raises again)."""
    try:
        return tuple(shlex.split(command))
    except ValueError as exc:
        raise AdbError(f"/system/bin/sh: {command!r}: {exc}") from exc


class SimulatedAdb:
    """Client-server ADB façade over a fleet of virtual phones."""

    def __init__(self) -> None:
        self._phones: dict[str, VirtualPhone] = {}

    # ------------------------------------------------------------------
    # fleet management
    # ------------------------------------------------------------------
    def register(self, phone: VirtualPhone) -> None:
        """Attach a phone to the bridge."""
        if phone.serial in self._phones:
            raise AdbError(f"serial {phone.serial!r} already attached")
        self._phones[phone.serial] = phone

    def unregister(self, serial: str) -> None:
        """Detach a phone."""
        if serial not in self._phones:
            raise AdbError(f"serial {serial!r} is not attached")
        del self._phones[serial]

    def phone(self, serial: str) -> VirtualPhone:
        """Resolve a serial (raises :class:`AdbError` if unknown)."""
        if serial not in self._phones:
            raise AdbError(f"device {serial!r} not found")
        return self._phones[serial]

    def devices(self) -> str:
        """``adb devices`` output."""
        lines = ["List of devices attached"]
        for serial in sorted(self._phones):
            lines.append(f"{serial}\tdevice")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # high-level operations
    # ------------------------------------------------------------------
    def install(self, serial: str, apk: TrainingApk) -> str:
        """``adb install``: registers the APK on the device."""
        self.phone(serial).install_apk(apk)
        return "Performing Streamed Install\nSuccess\n"

    def push_duration(self, serial: str, n_bytes: int) -> float:
        """Seconds an ``adb push`` of ``n_bytes`` takes to this phone.

        Callers advance simulated time by this amount; MSP phones pay
        nothing extra here (their latency applies per *control* command).
        """
        if n_bytes < 0:
            raise AdbError("cannot push a negative payload")
        phone = self.phone(serial)
        return n_bytes / phone.spec.network_bandwidth_bps

    def push_durations(self, serials: Sequence[str], byte_counts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`push_duration`: row ``i`` of ``byte_counts`` is pushed to ``serials[i]``.

        Element ``[i, j]`` equals ``push_duration(serials[i], byte_counts[i, j])``
        bit-for-bit (one float64 division either way) — the phone tier
        stages every queue of a plan with one array op instead of one
        bridge call per queued device.
        """
        byte_counts = np.asarray(byte_counts, dtype=np.float64)
        if byte_counts.size and float(byte_counts.min()) < 0:
            raise AdbError("cannot push a negative payload")
        bandwidth = [self.phone(serial).spec.network_bandwidth_bps for serial in serials]
        return byte_counts / np.array(bandwidth, dtype=np.float64)[:, None]

    # ------------------------------------------------------------------
    # shell
    # ------------------------------------------------------------------
    def shell(self, serial: str, command: str) -> str:
        """Execute an ``adb shell`` command; returns raw stdout text.

        Supports the paper's command set plus a trailing ``| grep X``
        filter (substring match, like busybox grep with a fixed pattern).
        """
        phone = self.phone(serial)
        command = command.strip()
        if not command:
            raise AdbError("empty shell command")
        if "|" in command:
            base, _, filter_part = command.partition("|")
            output = self._dispatch(phone, base.strip())
            filter_tokens = _tokens(filter_part.strip())
            if not filter_tokens or filter_tokens[0] != "grep":
                raise AdbError(f"unsupported pipeline: {filter_part.strip()!r}")
            pattern = filter_tokens[-1]
            kept = [line for line in output.splitlines() if pattern in line]
            return "\n".join(kept) + ("\n" if kept else "")
        return self._dispatch(phone, command)

    # ------------------------------------------------------------------
    def _dispatch(self, phone: VirtualPhone, command: str) -> str:
        tokens = _tokens(command)
        if not tokens:
            raise AdbError("empty shell command")
        head = tokens[0]
        if head == "cat":
            return self._cat(phone, tokens)
        if head == "top":
            return self._top(phone, tokens)
        if head == "pgrep":
            return self._pgrep(phone, tokens)
        if head == "dumpsys":
            return self._dumpsys(phone, tokens)
        if head == "pm":
            return self._pm(phone, tokens)
        if head == "am":
            return self._am(phone, tokens)
        raise AdbError(f"/system/bin/sh: {head}: inaccessible or not found")

    def _cat(self, phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
        if len(tokens) != 2:
            raise AdbError("usage: cat <path>")
        path = tokens[1]
        if path == "/sys/class/power_supply/battery/current_now":
            return f"{phone.current_now_ua()}\n"
        if path == "/sys/class/power_supply/battery/voltage_now":
            return f"{phone.voltage_now_uv()}\n"
        if path.startswith("/proc/") and path.endswith("/net/dev"):
            pid_text = path.split("/")[2]
            try:
                pid = int(pid_text)
            except ValueError as exc:
                raise AdbError(f"cat: {path}: invalid pid") from exc
            return self._net_dev(phone, pid)
        raise AdbError(f"cat: {path}: No such file or directory")

    @staticmethod
    def _net_dev(phone: VirtualPhone, pid: int) -> str:
        rx, tx = phone.net_dev_bytes(pid)
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

    def _top(self, phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
        if "-p" not in tokens:
            raise AdbError("top: simulated bridge requires -p <pid>")
        try:
            pid = int(tokens[tokens.index("-p") + 1])
        except (IndexError, ValueError) as exc:
            raise AdbError(f"top: -p needs a numeric pid: {shlex.join(tokens)!r}") from exc
        cpu = phone.cpu_percent(pid)
        mem_kb = phone.memory_pss_kb(phone.running_package or "")
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

    def _pgrep(self, phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
        if len(tokens) < 3 or tokens[1] != "-f":
            raise AdbError("usage: pgrep -f <pattern>")
        pid = phone.pgrep(tokens[2])
        return f"{pid}\n" if pid is not None else ""

    def _dumpsys(self, phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
        if len(tokens) < 2:
            raise AdbError("usage: dumpsys <service-or-package>")
        package = tokens[-1]
        pss = phone.memory_pss_kb(package)
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

    def _pm(self, phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
        if len(tokens) >= 2 and tokens[1] == "clear":
            phone.clear_background()
            return "Success\n"
        raise AdbError(f"pm: unsupported sub-command {list(tokens[1:])!r}")

    def _am(self, phone: VirtualPhone, tokens: tuple[str, ...]) -> str:
        if len(tokens) >= 2 and tokens[1] == "start":
            if "-n" not in tokens[:-1]:
                raise AdbError("am start: missing -n <component>")
            component = tokens[tokens.index("-n") + 1]
            package = component.split("/")[0]
            phone.launch_apk(package)
            return f"Starting: Intent {{ cmp={component} }}\n"
        if len(tokens) >= 2 and tokens[1] == "force-stop":
            phone.stop_apk()
            return ""
        if len(tokens) >= 2 and tokens[1] == "broadcast":
            return "Broadcasting: Intent { act=... }\nBroadcast completed: result=0\n"
        raise AdbError(f"am: unsupported sub-command {list(tokens[1:])!r}")
