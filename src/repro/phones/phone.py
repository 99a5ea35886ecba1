"""A virtual Android phone with physically-plausible observable state.

Every quantity PhoneMgr measures — instantaneous battery current/voltage,
per-process CPU%, PSS memory, WLAN byte counters — is a deterministic
(seeded) function of the phone's APK lifecycle stage and the simulated
clock, so polling at any frequency yields coherent traces: CPU oscillates
batch-by-batch during training, memory ramps as the training set loads
(the Fig. 5 shape), and the battery integral reproduces Table I.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.phones.apk import ApkStage, TrainingApk
from repro.phones.battery import BatteryModel
from repro.phones.specs import PhoneSpec
from repro.simkernel import RandomStreams, Signal, Simulator, stable_hash
from repro.simkernel.random import NormalReader

#: Control-plane bytes exchanged during a training stage on top of the
#: model upload (heartbeats, progress RPCs).  Together with the ~32.8 KB
#: serialized update this lands on Table I's 33.10 KB per round.
TRAINING_CONTROL_BYTES = 1084


class VirtualPhone:
    """One simulated handset in the physical devices cluster.

    Parameters
    ----------
    sim:
        Shared simulator (the clock driving all observable state).
    serial:
        ADB serial number.
    spec:
        Hardware description.
    streams:
        Deterministic random streams for sensor noise.
    is_msp:
        Whether the phone is a remote Mobile-Service-Platform device.
    """

    def __init__(
        self,
        sim: Simulator,
        serial: str,
        spec: PhoneSpec,
        streams: RandomStreams,
        is_msp: bool = False,
    ) -> None:
        self.sim = sim
        self.serial = serial
        self.spec = spec
        self.is_msp = is_msp
        self._noise = NormalReader(streams.get(f"phone.{serial}.noise"))
        self.battery = BatteryModel(
            spec.battery_mah,
            spec.nominal_voltage_mv,
            rng=streams.get(f"phone.{serial}.battery"),
        )
        self.stage: ApkStage | None = None
        self._stage_entered_at = sim.now
        self.stage_energy_mah: dict[ApkStage, float] = {}
        self.stage_durations: dict[ApkStage, float] = {}
        self.installed: dict[str, TrainingApk] = {}
        self.running_pid: int | None = None
        self.running_package: str | None = None
        self._pid_counter = 4000 + stable_hash(serial)[0] % 997  # not hash(): salted per process
        self._training_started_at: float | None = None
        self._training_duration: float = 0.0
        self._training_upload_bytes: int = 0
        self._net_rx_base = 0
        self._net_tx_base = 0
        self.training_complete: Signal | None = None
        self.sessions_completed = 0

    # ------------------------------------------------------------------
    # lifecycle transitions (driven by ADB commands)
    # ------------------------------------------------------------------
    def _current_draw_ma(self) -> float:
        if self.stage is None:
            return self.spec.idle_current_ma
        return self.spec.stage_current(self.stage)

    def _enter_stage(self, stage: ApkStage | None, at: float | None = None) -> None:
        """Close the energy account of the old stage, open the new one.

        ``at`` overrides the transition timestamp (default: the simulated
        clock) — the batched phone tier replays a whole round's stage
        transitions from precomputed wave times without per-event callbacks.
        """
        now = self.sim.now if at is None else at
        elapsed = now - self._stage_entered_at
        if elapsed > 0 and self.stage is not None:
            consumed = self.battery.accumulate(self._current_draw_ma(), elapsed)
            self.stage_energy_mah[self.stage] = (
                self.stage_energy_mah.get(self.stage, 0.0) + consumed
            )
            self.stage_durations[self.stage] = (
                self.stage_durations.get(self.stage, 0.0) + elapsed
            )
        elif elapsed > 0:
            self.battery.accumulate(self.spec.idle_current_ma, elapsed)
        self.stage = stage
        self._stage_entered_at = now

    def clear_background(self) -> None:
        """Stage 1: background tasks cleared, training APK not running."""
        self.running_pid = None
        self.running_package = None
        self._enter_stage(ApkStage.NO_APK)

    def install_apk(self, apk: TrainingApk) -> None:
        """Install (or upgrade) the training APK."""
        self.installed[apk.package] = apk

    def launch_apk(self, package: str) -> int:
        """Stage 2: start the APK's main activity; returns the new pid."""
        if package not in self.installed:
            raise RuntimeError(f"{self.serial}: package {package!r} is not installed")
        self._pid_counter += 37
        self.running_pid = self._pid_counter
        self.running_package = package
        self._net_rx_base = 0
        self._net_tx_base = 0
        self._enter_stage(ApkStage.APK_LAUNCH)
        return self.running_pid

    def start_training(self, duration: float, upload_bytes: int) -> Signal:
        """Stage 3: run one on-device training round.

        Returns a signal fired when training completes (at which point the
        phone transitions itself to the post-training stage and the upload
        bytes land on the WLAN counters).
        """
        if self.running_pid is None:
            raise RuntimeError(f"{self.serial}: no running APK to train in")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if upload_bytes < 0:
            raise ValueError("upload_bytes must be >= 0")
        self._training_started_at = self.sim.now
        self._training_duration = float(duration)
        self._training_upload_bytes = int(upload_bytes)
        self._enter_stage(ApkStage.TRAINING)
        self.training_complete = Signal(name=f"{self.serial}.training")
        self.sim.schedule(duration, self._finish_training)
        return self.training_complete

    def _finish_training(self) -> None:
        assert self.training_complete is not None
        if self.running_pid is None:
            # The APK was force-stopped mid-training (task aborted); the
            # session produced nothing, but waiters must still resume.
            if not self.training_complete.fired:
                self.training_complete.fire(self.serial)
            return
        self._net_tx_base += self._training_upload_bytes + TRAINING_CONTROL_BYTES // 2
        self._net_rx_base += TRAINING_CONTROL_BYTES - TRAINING_CONTROL_BYTES // 2
        self._enter_stage(ApkStage.POST_TRAINING)
        self.sessions_completed += 1
        self.training_complete.fire(self.serial)

    def replay_training_sessions(
        self, first_start: float, last_start: float, duration: float, upload_bytes: int, accounts: np.ndarray
    ) -> None:
        """Apply the state effects of ``k`` back-to-back training runs at once.

        ``accounts`` is this phone's ``(2, 2k + 1)`` slice of
        :func:`session_accounts` for sessions starting ``first_start`` ..
        ``last_start``.  Battery, stage, WLAN and session accounts end
        bit-identical to driving :meth:`start_training` through per-device
        events.
        """
        if upload_bytes < 0:
            raise ValueError("upload_bytes must be >= 0")
        if self.running_pid is None:
            raise RuntimeError(f"{self.serial}: no running APK to train in")
        sessions = accounts.shape[1] // 2
        # Close whatever stage the phone is in and enter the first session
        # through the generic accounting path ...
        self._enter_stage(ApkStage.TRAINING, at=first_start)
        # ... then each running sum is one sequential pass (np.add.accumulate,
        # never a pairwise reduce: float addition is not associative) seeded
        # with the phone's value through the row's seed slots.
        energy, seconds = accounts
        stage_energy, stage_durations = self.stage_energy_mah, self.stage_durations
        energy[1] = self.battery.consumed_mah
        self.battery.consumed_mah = float(np.add.accumulate(energy[1:])[-1])
        energy[0] = stage_energy.get(ApkStage.TRAINING, 0.0)
        seconds[0] = stage_durations.get(ApkStage.TRAINING, 0.0)
        stage_energy[ApkStage.TRAINING] = float(np.add.accumulate(energy[::2])[-1])
        stage_durations[ApkStage.TRAINING] = float(np.add.accumulate(seconds[::2])[-1])
        if seconds[3::2].any():  # some gap > 0 opened a post-training account
            energy[1] = stage_energy.get(ApkStage.POST_TRAINING, 0.0)
            seconds[1] = stage_durations.get(ApkStage.POST_TRAINING, 0.0)
            stage_energy[ApkStage.POST_TRAINING] = float(np.add.accumulate(energy[1::2])[-1])
            stage_durations[ApkStage.POST_TRAINING] = float(np.add.accumulate(seconds[1::2])[-1])
        # Integer counters are order-free; apply the whole batch at once.
        self._net_tx_base += sessions * (upload_bytes + TRAINING_CONTROL_BYTES // 2)
        self._net_rx_base += sessions * (TRAINING_CONTROL_BYTES - TRAINING_CONTROL_BYTES // 2)
        self.sessions_completed += sessions
        self._training_started_at = last_start
        self._training_duration = float(duration)
        self._training_upload_bytes = int(upload_bytes)
        self.stage = ApkStage.POST_TRAINING
        self._stage_entered_at = last_start + duration

    def stop_apk(self) -> None:
        """Stage 5: force-stop the APK and clear background tasks."""
        self._enter_stage(ApkStage.APK_CLOSURE)
        self.running_pid = None
        self.running_package = None

    def set_idle(self) -> None:
        """Leave the measurement session entirely (screen-off idle)."""
        self._enter_stage(None)

    # ------------------------------------------------------------------
    # observable sensors (what the ADB commands read)
    # ------------------------------------------------------------------
    def current_now_ua(self) -> int:
        """Instantaneous battery current (µA, negative = discharging)."""
        return self.battery.current_now_ua(self._current_draw_ma())

    def voltage_now_uv(self) -> int:
        """Instantaneous battery voltage (µV)."""
        return self.battery.voltage_now_uv()

    def pgrep(self, name: str) -> int | None:
        """Pid of the process matching ``name``, if running."""
        if self.running_package is not None and name in self.running_package:
            return self.running_pid
        return None

    def cpu_percent(self, pid: int) -> float:
        """Per-process CPU utilisation as ``top`` would report it.

        During training the trace oscillates with the mini-batch cycle
        (Fig. 5 shows ~0-14%); launch and post-training stages hover low.
        """
        if pid != self.running_pid or self.stage is None:
            return 0.0
        if self.stage is ApkStage.TRAINING:
            t = self.sim.now - (self._training_started_at or self.sim.now)
            wave = 8.0 + 4.0 * math.sin(2.0 * math.pi * t / 20.0)
            value = wave + self._noise.normal(0.0, 1.2)
            return float(min(15.0, max(0.3, value)))
        if self.stage in (ApkStage.APK_LAUNCH, ApkStage.POST_TRAINING):
            return float(max(0.1, 3.0 + self._noise.normal(0.0, 1.0)))
        return float(max(0.0, 1.0 + self._noise.normal(0.0, 0.5)))

    def memory_pss_kb(self, package: str) -> int:
        """Proportional-set-size of the training process in kB.

        Ramps from ~10 MB at launch toward ~50 MB as training data and
        the optimiser state load, then plateaus (the Fig. 5 shape).
        """
        if package != self.running_package or self.stage is None:
            return 0
        base_kb = 10 * 1024
        if self.stage is ApkStage.APK_LAUNCH:
            value = base_kb + self._noise.normal(0.0, 300.0)
        elif self.stage is ApkStage.TRAINING:
            t = self.sim.now - (self._training_started_at or self.sim.now)
            progress = min(1.0, t / max(1e-9, 0.6 * self._training_duration))
            value = base_kb + progress * 40 * 1024 + self._noise.normal(0.0, 500.0)
        elif self.stage is ApkStage.POST_TRAINING:
            value = base_kb + 25 * 1024 + self._noise.normal(0.0, 500.0)
        else:
            value = base_kb * 0.5
        return int(max(1024, value))

    def net_dev_bytes(self, pid: int) -> tuple[int, int]:
        """Cumulative WLAN (rx, tx) bytes attributed to ``pid``.

        Mid-training the counters drip control traffic linearly; the model
        upload lands when training finishes.
        """
        if pid != self.running_pid:
            return (0, 0)
        rx = self._net_rx_base
        tx = self._net_tx_base
        if self.stage is ApkStage.TRAINING and self._training_started_at is not None:
            progress = min(
                1.0, (self.sim.now - self._training_started_at) / max(1e-9, self._training_duration)
            )
            drip = int(progress * TRAINING_CONTROL_BYTES)
            rx += drip - drip // 2
            tx += drip // 2
        return (rx, tx)

    # ------------------------------------------------------------------
    def exact_stage_energy(self, stage: ApkStage) -> float:
        """Ground-truth mAh consumed in ``stage`` (for measurement tests)."""
        return self.stage_energy_mah.get(stage, 0.0)


def session_accounts(phones: Sequence[VirtualPhone], starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Account increments of back-to-back training sessions, one row per phone.

    ``phones[p]`` trains from ``starts[p, i]`` to ``ends[p, i]`` and is
    post-training until its next start.  The result is ``(2, phones,
    2 * sessions + 1)``, mAh in ``[0]`` and seconds in ``[1]``: column
    ``2i + 2`` is session ``i``'s training, column ``2i + 1`` (``i >= 1``)
    the gap before it (``0.0`` for a gap ``<= 0``, which changes no sum) and
    columns 0 and 1 are seed slots.  A phone with ``k`` sessions owns the
    first ``2k + 1`` columns of its row.  Computed in place, so the result
    is the only array the size of the plan.
    """
    draws = np.array(
        [[phone.spec.stage_current(stage) for stage in (ApkStage.TRAINING, ApkStage.POST_TRAINING)] for phone in phones]
    )
    accounts = np.zeros((2, len(phones), 2 * starts.shape[1] + 1))
    energy, seconds = accounts
    np.subtract(ends, starts, out=seconds[:, 2::2])
    np.subtract(starts[:, 1:], ends[:, :-1], out=seconds[:, 3::2])
    seconds[:, 3::2][seconds[:, 3::2] <= 0] = 0.0
    np.multiply(draws[:, :1], seconds[:, 2::2], out=energy[:, 2::2])
    np.multiply(draws[:, 1:], seconds[:, 3::2], out=energy[:, 3::2])
    energy[:, 2:] /= 3600.0
    return accounts
