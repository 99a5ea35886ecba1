"""A simulated Android Debug Bridge.

"PhoneMgr performs various operations and interface management for
physical devices, primarily relying on ADB commands" (§IV-C).  PhoneMgr
sends three shell commands — ``pm clear <pkg>``, ``am start -n
<component>`` and ``am force-stop <pkg>`` — and this bridge answers
exactly those, besides ``install`` and the staging push times.  Any other
command is an :class:`AdbError` quoting it.

The benchmarking sampler reads the virtual sensors directly
(:meth:`~repro.phones.phone.VirtualPhone.read_sensors`).  The text read
protocol that read stands for — battery sysfs, ``top``, ``pgrep``,
``dumpsys``, ``/proc/<pid>/net/dev``, a trailing ``| grep`` — and its
post-processing parsers live in ``tests/reference/adb_reference.py``, the
oracle the direct read is held to.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.phones.apk import TrainingApk
from repro.phones.phone import VirtualPhone


class AdbError(RuntimeError):
    """Raised for unknown serials, commands, or device-side failures."""


class SimulatedAdb:
    """Client-server ADB façade over a fleet of virtual phones."""

    def __init__(self) -> None:
        self._phones: dict[str, VirtualPhone] = {}

    def register(self, phone: VirtualPhone) -> None:
        """Attach a phone to the bridge."""
        if phone.serial in self._phones:
            raise AdbError(f"serial {phone.serial!r} already attached")
        self._phones[phone.serial] = phone

    def phone(self, serial: str) -> VirtualPhone:
        """Resolve a serial (raises :class:`AdbError` if unknown)."""
        if serial not in self._phones:
            raise AdbError(f"device {serial!r} not found")
        return self._phones[serial]

    def install(self, serial: str, apk: TrainingApk) -> str:
        """``adb install``: registers the APK on the device."""
        self.phone(serial).install_apk(apk)
        return "Performing Streamed Install\nSuccess\n"

    def push_durations(self, serials: Sequence[str], byte_counts: np.ndarray) -> np.ndarray:
        """Seconds each ``adb push`` takes: row ``i`` of ``byte_counts`` is pushed to ``serials[i]``.

        Element ``[i, j]`` is ``byte_counts[i, j] / bandwidth(serials[i])``,
        one float64 division.  Callers advance simulated time by it; MSP
        phones pay nothing extra here (their latency applies per *control*
        command).
        """
        byte_counts = np.asarray(byte_counts, dtype=np.float64)
        if byte_counts.size and float(byte_counts.min()) < 0:
            raise AdbError("cannot push a negative payload")
        bandwidth = [self.phone(serial).spec.network_bandwidth_bps for serial in serials]
        return byte_counts / np.array(bandwidth, dtype=np.float64)[:, None]

    def shell(self, serial: str, command: str) -> str:
        """Execute a control command (``pm clear``, ``am start -n``, ``am force-stop``); returns its stdout."""
        phone = self.phone(serial)
        tokens = command.split()
        if not tokens:
            raise AdbError("empty shell command")
        verb, args = tokens[0], tokens[1:]
        if verb == "pm" and args[:1] == ["clear"]:
            phone.clear_background()
            return "Success\n"
        if verb == "am" and args[:1] == ["start"]:
            if "-n" not in tokens[:-1]:
                raise AdbError("am start: missing -n <component>")
            component = tokens[tokens.index("-n") + 1]
            phone.launch_apk(component.split("/")[0])
            return f"Starting: Intent {{ cmp={component} }}\n"
        if verb == "am" and args[:1] == ["force-stop"]:
            phone.stop_apk()
            return ""
        if verb in ("pm", "am"):
            raise AdbError(f"{verb}: unsupported sub-command {args!r}")
        raise AdbError(f"/system/bin/sh: {verb}: inaccessible or not found")
