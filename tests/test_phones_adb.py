"""Unit tests for the simulated ADB and raw-output post-processing.

Production's bridge answers only the control commands PhoneMgr sends
(:class:`TestControlCommands`); the paper's read protocol and its parsers
are the oracle ``reference.adb_reference`` (:class:`TestPaperCommandSet`,
:class:`TestParsers`).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.phones import AdbError, ApkStage, SimulatedAdb, TrainingApk, VirtualPhone
from repro.phones.metrics import DeviceMetricSample, integrate_energy_mah
from repro.phones.specs import DEFAULT_LOCAL_FLEET
from repro.simkernel import RandomStreams, Simulator

from reference import adb_reference
from reference.adb_reference import (
    parse_current_ua,
    parse_metric_sample,
    parse_net_dev,
    parse_pgrep_pid,
    parse_pss_kb,
    parse_top_cpu,
    parse_voltage_mv,
    push_duration,
    text_shell,
)


@pytest.fixture()
def rig():
    sim = Simulator()
    adb = SimulatedAdb()
    phone = VirtualPhone(sim, "serial-1", DEFAULT_LOCAL_FLEET[0], streams=RandomStreams(1))
    adb.register(phone)
    apk = TrainingApk()
    adb.install("serial-1", apk)
    return sim, adb, phone, apk


class TestFleetManagement:
    def test_register_resolves_the_serial(self, rig):
        _, adb, phone, _ = rig
        assert adb.phone("serial-1") is phone

    def test_duplicate_serial_rejected(self, rig):
        sim, adb, phone, _ = rig
        with pytest.raises(AdbError):
            adb.register(phone)

    def test_unknown_serial(self, rig):
        _, adb, _, _ = rig
        with pytest.raises(AdbError):
            adb.shell("nope", "cat /sys/class/power_supply/battery/current_now")

    def test_push_duration_scales(self, rig):
        _, adb, phone, _ = rig
        assert push_duration(adb, "serial-1", 0) == 0.0
        one_mb = push_duration(adb, "serial-1", 10**6)
        assert one_mb == pytest.approx(10**6 / phone.spec.network_bandwidth_bps)
        with pytest.raises(AdbError):
            push_duration(adb, "serial-1", -1)


class TestControlCommands:
    """Production's shell answers the three commands PhoneMgr sends, and nothing else."""

    def test_the_three_verbs(self, rig):
        _, adb, phone, apk = rig
        assert adb.shell("serial-1", f"am start -n {apk.component}") == f"Starting: Intent {{ cmp={apk.component} }}\n"
        assert phone.running_package == apk.package
        assert phone.running_pid is not None
        assert adb.shell("serial-1", f"pm clear {apk.package}") == "Success\n"
        assert phone.running_pid is None and phone.running_package is None
        assert phone.stage is ApkStage.NO_APK
        adb.shell("serial-1", f"am start -n {apk.component}")
        assert adb.shell("serial-1", f"am force-stop {apk.package}") == ""
        assert phone.running_pid is None and phone.running_package is None
        assert phone.stage is ApkStage.APK_CLOSURE

    @pytest.mark.parametrize(
        ("command", "message"),
        [
            ("cat /sys/class/power_supply/battery/current_now", "/system/bin/sh: cat: inaccessible or not found"),
            ("am broadcast -a x.START", "am: unsupported sub-command ['broadcast', '-a', 'x.START']"),
            ("", "empty shell command"),
            ("   ", "empty shell command"),
            ("frobnicate --now", "/system/bin/sh: frobnicate: inaccessible or not found"),
            ("pm install x.apk", "pm: unsupported sub-command ['install', 'x.apk']"),
            ("am start -n", "am start: missing -n <component>"),
        ],
    )
    def test_anything_else_is_an_adb_error_quoting_it(self, rig, command, message):
        _, adb, phone, _ = rig
        stage = phone.stage
        with pytest.raises(AdbError) as caught:
            adb.shell("serial-1", command)
        assert str(caught.value) == message
        assert phone.stage is stage


class TestPaperCommandSet:
    """Each command quoted in §IV-C round-trips through parse helpers."""

    def test_current_now(self, rig):
        _, adb, phone, _ = rig
        raw = text_shell(adb, "serial-1", "cat /sys/class/power_supply/battery/current_now")
        value = parse_current_ua(raw)
        assert value > 0  # magnitude of the negative sysfs reading
        assert raw.strip().startswith("-")

    def test_voltage_now(self, rig):
        _, adb, _, _ = rig
        raw = text_shell(adb, "serial-1", "cat /sys/class/power_supply/battery/voltage_now")
        mv = parse_voltage_mv(raw)
        assert 3000 < mv < 4500

    def test_pgrep_then_top(self, rig):
        sim, adb, phone, apk = rig
        text_shell(adb, "serial-1", f"pm clear {apk.package}")
        text_shell(adb, "serial-1", f"am start -n {apk.component}")
        pid_raw = text_shell(adb, "serial-1", f"pgrep -f {apk.package}")
        pid = parse_pgrep_pid(pid_raw)
        assert pid == phone.running_pid
        top_raw = text_shell(adb, "serial-1", f"top -b -n 1 -p {pid}")
        cpu = parse_top_cpu(top_raw, pid)
        assert 0.0 <= cpu <= 20.0

    def test_pid_does_not_depend_on_the_hash_seed(self):
        """A phone's pid is a function of its serial, not of the process's ``str`` hash salt."""
        script = (
            "from repro.phones import SimulatedAdb, TrainingApk, VirtualPhone\n"
            "from repro.phones.specs import DEFAULT_LOCAL_FLEET\n"
            "from repro.simkernel import RandomStreams, Simulator\n"
            "from reference.adb_reference import text_shell\n"
            "adb, apk = SimulatedAdb(), TrainingApk()\n"
            "adb.register(VirtualPhone(Simulator(), 'local-000', DEFAULT_LOCAL_FLEET[0], streams=RandomStreams(0)))\n"
            "adb.install('local-000', apk)\n"
            "adb.shell('local-000', f'am start -n {apk.component}')\n"
            "print(text_shell(adb, 'local-000', f'pgrep -f {apk.package}'))\n"
        )
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        outputs = {
            seed: subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1", "12345")
        }
        assert parse_pgrep_pid(outputs["0"]) is not None
        assert len(set(outputs.values())) == 1, outputs

    def test_pgrep_not_running(self, rig):
        _, adb, _, apk = rig
        raw = text_shell(adb, "serial-1", f"pgrep -f {apk.package}")
        assert parse_pgrep_pid(raw) is None

    def test_dumpsys_grep_pss(self, rig):
        _, adb, phone, apk = rig
        text_shell(adb, "serial-1", f"am start -n {apk.component}")
        raw = text_shell(adb, "serial-1", f"dumpsys meminfo {apk.package} | grep PSS")
        # grep keeps only PSS-bearing lines; parser must isolate TOTAL PSS.
        assert "TOTAL PSS" in raw
        assert "Java Heap" not in raw
        kb = parse_pss_kb(raw)
        assert kb == pytest.approx(phone.memory_pss_kb(apk.package), rel=0.2)

    def test_net_dev_grep_wlan(self, rig):
        sim, adb, phone, apk = rig
        text_shell(adb, "serial-1", f"am start -n {apk.component}")
        pid = phone.running_pid
        phone.start_training(5.0, upload_bytes=10_000)
        sim.run()
        raw = text_shell(adb, "serial-1", f"cat /proc/{pid}/net/dev | grep wlan")
        rx, tx = parse_net_dev(raw)
        assert "lo:" not in raw
        assert rx + tx > 10_000

    def test_lifecycle_commands(self, rig):
        _, adb, phone, apk = rig
        assert "Success" in text_shell(adb, "serial-1", f"pm clear {apk.package}")
        assert "Starting" in text_shell(adb, "serial-1", f"am start -n {apk.component}")
        text_shell(adb, "serial-1", f"am force-stop {apk.package}")
        assert phone.running_pid is None

    def test_unknown_command_is_shell_error(self, rig):
        _, adb, _, _ = rig
        with pytest.raises(AdbError, match="not found"):
            text_shell(adb, "serial-1", "frobnicate --now")

    def test_unknown_path(self, rig):
        _, adb, _, _ = rig
        with pytest.raises(AdbError, match="No such file"):
            text_shell(adb, "serial-1", "cat /sys/does/not/exist")

    def test_unsupported_pipeline(self, rig):
        _, adb, _, _ = rig
        with pytest.raises(AdbError, match="unsupported pipeline"):
            text_shell(adb, "serial-1", "cat /sys/class/power_supply/battery/current_now | awk x")

    @pytest.mark.parametrize(
        ("command", "names"),
        [
            ("top -n 1 -p", "top -n 1 -p"),  # was IndexError
            ("top -n 1 -p abc", "top -n 1 -p abc"),  # was ValueError from int()
            ("cat 'unterminated", "cat 'unterminated"),  # was ValueError: No closing quotation
            ("pgrep -f x | grep 'y", "grep 'y"),  # the same, in the filter
            ("am start -n", "missing -n"),  # was IndexError
            ("| grep x", "empty shell command"),  # was IndexError on tokens[0]
        ],
    )
    def test_malformed_command_is_an_adb_error_naming_it(self, rig, command, names):
        """Twice: the token memo must answer a bad string the second time as it did the first."""
        _, adb, _, _ = rig
        messages = []
        for _ in range(2):
            with pytest.raises(AdbError) as caught:
                text_shell(adb, "serial-1", command)
            assert names in str(caught.value)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_a_command_string_is_tokenised_once(self, rig, monkeypatch):
        import shlex

        _, adb, _, _ = rig
        split_calls = []
        real_split = shlex.split
        monkeypatch.setattr(shlex, "split", lambda text: split_calls.append(text) or real_split(text))
        adb_reference._tokens.cache_clear()
        for _ in range(5):
            assert parse_voltage_mv(text_shell(adb, "serial-1", "cat /sys/class/power_supply/battery/voltage_now")) > 0
        assert split_calls == ["cat /sys/class/power_supply/battery/voltage_now"]


class TestParsers:
    def test_parse_current_magnitude(self):
        assert parse_current_ua("-57600\n") == 57600.0
        assert parse_current_ua("57600") == 57600.0
        with pytest.raises(ValueError):
            parse_current_ua("   ")

    def test_parse_voltage_units(self):
        assert parse_voltage_mv("3852000\n") == pytest.approx(3852.0)

    def test_parse_top_missing_pid_is_zero(self):
        raw = "  PID USER  PR NI VIRT RES SHR S[%CPU] %MEM TIME+ ARGS\n"
        assert parse_top_cpu(raw, 123) == 0.0

    def test_parse_pss_ignores_heap_lines(self):
        raw = "          Java Heap:     8000\n         TOTAL PSS:     34520            TOTAL RSS: 48000\n"
        assert parse_pss_kb(raw) == 34520
        assert parse_pss_kb("No process found for: x\n") == 0

    def test_parse_net_dev_sums_wlan_only(self):
        raw = (
            "    lo:     4096      12    0    0    0     0          0         0     4096      12    0    0    0     0       0          0\n"  # noqa: E501
            " wlan0:    10000       7    0    0    0     0          0         0     2000       2    0    0    0     0       0          0\n"  # noqa: E501
            " wlan1:      500       1    0    0    0     0          0         0      500       1    0    0    0     0       0          0\n"  # noqa: E501
        )
        rx, tx = parse_net_dev(raw)
        assert rx == 10_500
        assert tx == 2_500

    def test_parse_net_dev_malformed(self):
        with pytest.raises(ValueError):
            parse_net_dev(" wlan0: 1 2 3\n")

    def test_integrate_energy_trapezoid(self):
        def sample(t, ma):
            return DeviceMetricSample(t, "s", ma * 1000.0, 3850.0, 0.0, 0, 0, 0)

        # Constant 100 mA for one hour -> 100 mAh.
        samples = [sample(0.0, 100.0), sample(1800.0, 100.0), sample(3600.0, 100.0)]
        assert integrate_energy_mah(samples) == pytest.approx(100.0)
        assert integrate_energy_mah(samples[:1]) == 0.0

    def test_integrate_energy_unordered_rejected(self):
        def sample(t):
            return DeviceMetricSample(t, "s", 1000.0, 3850.0, 0.0, 0, 0, 0)

        with pytest.raises(ValueError):
            integrate_energy_mah([sample(10.0), sample(5.0)])

    def test_parse_metric_sample_assembly(self):
        sample = parse_metric_sample(
            timestamp=12.0,
            serial="s",
            current_raw="-40000\n",
            voltage_raw="3850000\n",
            top_raw=" 4123 u0_a1 10 -10 50000K 40000K 12000K S  8.3  0.4 0:42.17 com.simdc.train\n",
            pid=4123,
            dumpsys_raw="         TOTAL PSS:     30000\n",
            net_dev_raw=" wlan0: 100 1 0 0 0 0 0 0 50 1 0 0 0 0 0 0\n",
        )
        assert sample.current_ma == pytest.approx(40.0)
        assert sample.voltage_mv == pytest.approx(3850.0)
        assert sample.cpu_percent == pytest.approx(8.3)
        assert sample.memory_kb == 30000
        assert sample.total_bytes == 150
