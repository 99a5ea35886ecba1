"""The benchmark sampler as a recurring kernel tick, reading one sample at a time.

As it stood before a benchmarking protocol computed its record's samples
in one array pass when it closed: :class:`TickerPhoneMgr` registers each
benchmarking phone with one shared recurring tick
(``Simulator.schedule_recurring``, first fire at the registration that
finds none running) that samples every active phone, in registration
order, with :func:`direct_metric_sample` (on the scalar sensor reads, one
noise draw at a time, kept here too); it fires a phone's ``stopped``
signal at the first tick after its protocol closes, and cancels itself at
the first tick that finds no phone active.  Its records keep a list of
samples (:class:`TickerRecord`) with the Table-I rows computed from that
list.  ``tier_reference.ReferencePhoneMgr`` swaps the ticker for one
polling process per phone that issues the ADB text reads.

``tests/test_phone_sampler_properties.py`` and
``tests/test_phone_tier_equivalence.py`` hold ``repro.phones.PhoneMgr`` to
both, bit for bit.  Do not optimise it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Generator
from dataclasses import dataclass, field

import numpy as np

from repro.deviceflow.messages import MessageBlock
from repro.ml.fedavg import ModelUpdate
from repro.phones import ApkStage, DeviceMetricSample, PhoneMgr, StageSummary, VirtualPhone
from repro.phones.phone import TRAINING_CONTROL_BYTES
from repro.simkernel import RecurringTimeout, Signal, Timeout


# ----------------------------------------------------------------------
# the scalar sensor reads: one value, and one noise draw, at a time
# ----------------------------------------------------------------------
def battery_current_now_ua(battery, mean_current_ma: float) -> int:
    """Instantaneous sysfs ``current_now`` reading in microamps.

    Negative by Android convention: most kernels report discharge current
    as a negative value — the post-processing must take the magnitude,
    exactly as real pipelines do.
    """
    if mean_current_ma < 0:
        raise ValueError("mean_current_ma must be >= 0")
    noisy = battery._rng.normal(mean_current_ma, battery.NOISE_FRACTION * mean_current_ma)
    return -int(round(max(0.0, noisy) * 1000.0))


def battery_voltage_now_uv(battery) -> int:
    """Instantaneous sysfs ``voltage_now`` reading in microvolts: up to 8% sag as charge depletes, ~2 mV ripple."""
    sag = 0.08 * battery.nominal_voltage_mv * (1.0 - battery.state_of_charge)
    ripple = battery._rng.normal(0.0, 2.0)
    return int(round((battery.nominal_voltage_mv - sag + ripple) * 1000.0))


def current_now_ua(phone) -> int:
    """The phone's battery current (µA, negative = discharging) at its stage's mean draw."""
    return battery_current_now_ua(phone.battery, phone._current_draw_ma())


def voltage_now_uv(phone) -> int:
    """The phone's battery voltage (µV)."""
    return battery_voltage_now_uv(phone.battery)


def pgrep(phone, name: str) -> int | None:
    """Pid of the process matching ``name``, if running."""
    if phone.running_package is not None and name in phone.running_package:
        return phone.running_pid
    return None


def cpu_percent(phone, pid: int) -> float:
    """Per-process CPU utilisation as ``top`` would report it.

    During training the trace oscillates with the mini-batch cycle (Fig. 5
    shows ~0-14%); launch and post-training stages hover low.
    """
    now = phone.sim.now
    if pid != phone.running_pid or phone.stage is None:
        return 0.0
    if phone.stage is ApkStage.TRAINING:
        t = now - (phone._training_started_at or now)
        wave = 8.0 + 4.0 * math.sin(2.0 * math.pi * t / 20.0)
        value = wave + phone._noise.normal(0.0, 1.2)
        return float(min(15.0, max(0.3, value)))
    if phone.stage in (ApkStage.APK_LAUNCH, ApkStage.POST_TRAINING):
        return float(max(0.1, 3.0 + phone._noise.normal(0.0, 1.0)))
    return float(max(0.0, 1.0 + phone._noise.normal(0.0, 0.5)))


def memory_pss_kb(phone, package: str) -> int:
    """Proportional-set-size of the training process in kB.

    Ramps from ~10 MB at launch toward ~50 MB as training data and the
    optimiser state load, then plateaus (the Fig. 5 shape).
    """
    now = phone.sim.now
    if package != phone.running_package or phone.stage is None:
        return 0
    base_kb = 10 * 1024
    if phone.stage is ApkStage.APK_LAUNCH:
        value = base_kb + phone._noise.normal(0.0, 300.0)
    elif phone.stage is ApkStage.TRAINING:
        t = now - (phone._training_started_at or now)
        progress = min(1.0, t / max(1e-9, 0.6 * phone._training_duration))
        value = base_kb + progress * 40 * 1024 + phone._noise.normal(0.0, 500.0)
    elif phone.stage is ApkStage.POST_TRAINING:
        value = base_kb + 25 * 1024 + phone._noise.normal(0.0, 500.0)
    else:
        value = base_kb * 0.5
    return int(max(1024, value))


def net_dev_bytes(phone, pid: int) -> tuple[int, int]:
    """Cumulative WLAN (rx, tx) bytes attributed to ``pid``: control traffic drips mid-training."""
    if pid != phone.running_pid:
        return (0, 0)
    rx = phone._net_rx_base
    tx = phone._net_tx_base
    if phone.stage is ApkStage.TRAINING and phone._training_started_at is not None:
        progress = min(1.0, (phone.sim.now - phone._training_started_at) / max(1e-9, phone._training_duration))
        drip = int(progress * TRAINING_CONTROL_BYTES)
        rx += drip - drip // 2
        tx += drip // 2
    return (rx, tx)


def direct_metric_sample(timestamp: float, phone, package: str) -> DeviceMetricSample:
    """One sample read straight off a virtual phone's sensors.

    Equal, bit for bit, to issuing the five raw ADB read commands and
    parsing their text (``reference.adb_reference``), including the lossy
    steps real post-processing performs — ``top`` prints %CPU with one
    decimal — and the exact sensor read order, so the phone's noise
    streams advance identically: ``top`` consults both CPU and PSS for its
    table even though the pipeline takes memory from ``dumpsys``.
    """
    current_ua = abs(float(current_now_ua(phone)))
    voltage_mv = float(voltage_now_uv(phone)) / 1000.0
    pid = pgrep(phone, package) or 0
    if pid:
        cpu = float(format(cpu_percent(phone, pid), ".1f"))
        memory_pss_kb(phone, phone.running_package or "")  # top's %MEM column
        memory_kb = memory_pss_kb(phone, package)
        rx_bytes, tx_bytes = net_dev_bytes(phone, pid)
    else:
        cpu, memory_kb, rx_bytes, tx_bytes = 0.0, 0, 0, 0
    return DeviceMetricSample(
        timestamp=timestamp,
        serial=phone.serial,
        current_ua=current_ua,
        voltage_mv=voltage_mv,
        cpu_percent=cpu,
        memory_kb=memory_kb,
        rx_bytes=rx_bytes,
        tx_bytes=tx_bytes,
    )


def integrate_energy_mah(samples: list[DeviceMetricSample]) -> float:
    """Trapezoidal mAh estimate from sampled currents, summed left to right."""
    if len(samples) < 2:
        return 0.0
    total = 0.0
    for earlier, later in zip(samples, samples[1:]):
        dt_hours = (later.timestamp - earlier.timestamp) / 3600.0
        if dt_hours < 0:
            raise ValueError("samples must be time-ordered")
        total += 0.5 * (earlier.current_ma + later.current_ma) * dt_hours
    return total


@dataclass
class TickerRecord:
    """One benchmarking phone's round: a list of samples and the stage boundaries."""

    serial: str
    device_id: str
    round_index: int
    samples: list[DeviceMetricSample] = field(default_factory=list)
    boundaries: list[tuple[ApkStage, float, float]] = field(default_factory=list)

    def stage_summaries(self) -> list[StageSummary]:
        """Table-I rows, each stage window found by bisection over the timestamps."""
        timestamps = [sample.timestamp for sample in self.samples]
        summaries = []
        for stage, start, end in self.boundaries:
            lo = bisect_left(timestamps, start - 1e-9)
            hi = bisect_right(timestamps, end + 1e-9)
            window = self.samples[lo:hi]
            comm_kb = (window[-1].total_bytes - window[0].total_bytes) / 1024.0 if len(window) >= 2 else 0.0
            summaries.append(
                StageSummary(
                    stage=int(stage),
                    label=stage.label,
                    power_mah=integrate_energy_mah(window),
                    duration_min=(end - start) / 60.0,
                    comm_kb=comm_kb,
                )
            )
        return summaries


class _SampledPhone:
    """One benchmarking phone's registration with the shared sampler ticker."""

    __slots__ = ("phone", "record", "active", "stopped")

    def __init__(self, phone: VirtualPhone, record: TickerRecord) -> None:
        self.phone = phone
        self.record = record
        self.active = True
        self.stopped = Signal(name=f"{phone.serial}.sampler")


class TickerPhoneMgr(PhoneMgr):
    """``PhoneMgr`` whose benchmarking phones are sampled by one shared recurring tick."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sampler_entries: list[_SampledPhone] = []
        self._sampler_handle: RecurringTimeout | None = None

    def abort(self) -> None:
        for phones in list(self.computing_phones.values()) + list(self.benchmark_phones.values()):
            for phone in phones:
                if phone.running_pid is not None:
                    self.adb.shell(phone.serial, f"am force-stop {self.apk.package}")
                phone.set_idle()
                self.release_phones([phone])
        for entry in self._sampler_entries:
            if not entry.stopped.fired:
                entry.stopped.fire(entry.phone.serial)
        self._sampler_entries = []
        if self._sampler_handle is not None:
            self._sampler_handle.cancel()
            self._sampler_handle = None
        self._forget_task()

    def _run_benchmark_phone(
        self,
        phone: VirtualPhone,
        plan,
        row: int,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        on_outcome: Callable[[MessageBlock], None],
    ) -> Generator:
        """The measured five-stage protocol of Table I on one phone, sampled by the ticker."""
        device = plan.benchmarking[row : row + 1]
        record = TickerRecord(serial=phone.serial, device_id=device.device_ids[0], round_index=round_index)
        self.benchmark_records.append(record)
        window = self.cost_model.stage_window
        entry = self._register_sampled_phone(phone, record)

        def boundary(stage: ApkStage, start: float) -> None:
            self._record_sample(phone, record)
            record.boundaries.append((stage, start, self.sim.now))

        # Stage 1: clear background, APK not running.
        yield from self._control_latency(phone)
        self.adb.shell(phone.serial, f"pm clear {self.apk.package}")
        start = self.sim.now
        yield Timeout(window)
        boundary(ApkStage.NO_APK, start)

        # Stage 2: launch the APK, do not train yet.
        yield from self._control_latency(phone)
        self.adb.shell(phone.serial, f"am start -n {self.apk.component}")
        start = self.sim.now
        yield Timeout(window)
        boundary(ApkStage.APK_LAUNCH, start)

        # Stage 3: training.
        duration = self.cost_model.training_duration(plan.grade, plan.flow.total_work)
        weights = biases = None
        payload = model_bytes
        if plan.numeric:
            weights, biases = self._execute_numeric(
                plan, device, round_index, global_weights, global_bias, block_size=1
            )
            if weights is not None:
                payload = ModelUpdate.wire_size(plan.feature_dim)
        start = self.sim.now
        done = phone.start_training(duration, upload_bytes=payload)
        yield done
        boundary(ApkStage.TRAINING, start)
        on_outcome(
            MessageBlock(
                task_id=self.task_id,
                round_index=round_index,
                device_ids=device.device_ids,
                grade=plan.grade,
                size_bytes=payload,
                n_samples=device.n_samples,
                finished_at=np.array([self.sim.now]),
                update_weights=weights,
                update_biases=biases,
            )
        )

        # Stage 4: post-training, APK still in the foreground.
        start = self.sim.now
        yield Timeout(window)
        boundary(ApkStage.POST_TRAINING, start)

        # Stage 5: exit the APK and clear background tasks.
        yield from self._control_latency(phone)
        self.adb.shell(phone.serial, f"am force-stop {self.apk.package}")
        start = self.sim.now
        yield Timeout(window)
        boundary(ApkStage.APK_CLOSURE, start)
        entry.active = False
        phone.set_idle()
        # Resume at the tick after deactivation, when the shared ticker fires ``stopped``.
        yield entry.stopped

    def _register_sampled_phone(self, phone: VirtualPhone, record: TickerRecord) -> _SampledPhone:
        """Join the shared sampler ticker (starting it on first use, firing *now*)."""
        entry = _SampledPhone(phone, record)
        self._sampler_entries.append(entry)
        if self._sampler_handle is None:
            self._sampler_handle = self.sim.schedule_recurring(
                self.poll_interval, self._sampler_tick, first_at=self.sim.now
            )
        return entry

    def _sampler_tick(self) -> None:
        """One shared tick: sample every active phone, in registration order.

        Deactivated phones get their ``stopped`` signal fired instead, one
        tick after deactivation.  The ticker cancels itself once nobody is
        registered, so no samples land between rounds.
        """
        survivors = []
        for entry in self._sampler_entries:
            if entry.active:
                self._record_sample(entry.phone, entry.record)
                survivors.append(entry)
            else:
                entry.stopped.fire(entry.phone.serial)
        self._sampler_entries = survivors
        if not survivors and self._sampler_handle is not None:
            self._sampler_handle.cancel()
            self._sampler_handle = None

    def _record_sample(self, phone: VirtualPhone, record: TickerRecord) -> None:
        record.samples.append(direct_metric_sample(self.sim.now, phone, self.apk.package))
