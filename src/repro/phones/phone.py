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
from repro.phones.metrics import SampleColumns
from repro.phones.specs import PhoneSpec
from repro.simkernel import RandomStreams, Signal, Simulator, stable_hash
from repro.simkernel.random import NormalReader

#: Control-plane bytes exchanged during a training stage on top of the
#: model upload (heartbeats, progress RPCs).  Together with the ~32.8 KB
#: serialized update this lands on Table I's 33.10 KB per round.
TRAINING_CONTROL_BYTES = 1084

#: The scalar CPU and PSS reads' constants, one column per stage, for :meth:`VirtualPhone.read_sensors`.
_STAGE_READS = np.array([
    # none, NO_APK, APK_LAUNCH, TRAINING, POST_TRAINING, APK_CLOSURE
    [0, 1, 1, 1, 1, 1],  # CPU draws
    [0, 0, 1, 1, 1, 0],  # PSS draws (top's, and dumpsys' where it finds the package)
    [0.0, 1.0, 3.0, 8.0, 3.0, 1.0],  # CPU mean (training: the batch wave's)
    [0.0, 0.5, 1.0, 1.2, 1.0, 0.5],  # CPU noise scale
    [0.0, 0.0, 0.1, 0.3, 0.1, 0.0],  # CPU floor
    [0.0, np.inf, np.inf, 15.0, np.inf, np.inf],  # CPU ceiling
    [0.0, 5120.0, 10240.0, 10240.0, 35840.0, 5120.0],  # PSS mean (training: before the load ramp)
    [0.0, 0.0, 300.0, 500.0, 500.0, 0.0],  # PSS noise scale
    [0.0, 1024.0, 1024.0, 1024.0, 1024.0, 1024.0],  # PSS floor
])


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
    def sensor_state(self, package: str) -> tuple[float, ...]:
        """What a sensor read of ``package`` depends on besides the clock and the noise, as floats.

        Stage (0: none), whether ``pgrep`` finds the training process and
        ``dumpsys`` its package, the mean current and voltage the battery
        reads around, the training session's start (NaN: none) and length
        and the WLAN bases; :meth:`read_sensors` reads it.
        """
        running = self.running_package
        started = self._training_started_at
        return (
            0.0 if self.stage is None else float(self.stage),
            float(running is not None and package in running),
            float(running == package),
            self._current_draw_ma(),
            self.battery.mean_voltage_mv(),
            np.nan if started is None else started,
            self._training_duration,
            float(self._net_rx_base),
            float(self._net_tx_base),
        )

    def read_sensors(self, times: np.ndarray, states: list[float], which: np.ndarray) -> SampleColumns:
        """Samples at ``times``, sample ``i`` seeing state ``which[i]`` of ``states``, in one pass.

        ``states`` is :meth:`sensor_state` tuples laid end to end.  Equal, value for value, to what
        post-processing extracts from the five ADB reads issued at each time in turn (the scalar reads and
        the text pipeline are the oracles in ``tests/reference/``): the noise comes from the same streams
        in the same order — battery current then voltage; then, while the process runs, CPU, ``top``'s PSS
        and ``dumpsys``' PSS — the current is the magnitude of the signed microamp reading and the CPU is
        ``top``'s one-decimal text.  The scalar reads' ``loc + (0.0 + scale * z)`` add to nonzero means,
        where ``0.0 +`` changes nothing.
        """
        sample = np.array(states).reshape(-1, 9).T[:, which]
        stage, found, own, mean_ma, mean_mv, start, span, rx, tx = sample
        stage = stage.astype(np.intp)
        reads = _STAGE_READS[:, stage]
        _, _, cpu_mean, cpu_scale, cpu_floor, cpu_ceiling, pss_mean, pss_scale, pss_floor = reads
        current_ua, voltage_mv = self.battery.read_columns(mean_ma, mean_mv)
        # Phone noise, sample by sample: CPU and top's PSS where pgrep finds the process, dumpsys' PSS where
        # it finds the package, each where its stage draws (a transposed mask fills sample-major).
        z = np.zeros((3, len(times)))
        drawn = (reads[[0, 1, 1]] * sample[[1, 1, 2]]).T > 0
        z.T[drawn] = self._noise.take(np.count_nonzero(drawn))
        # Training: CPU rides the batch wave, PSS ramps as data loads, WLAN drips control traffic.
        training = np.flatnonzero(found * (stage == ApkStage.TRAINING.value))
        elapsed = times[training] - start[training]
        ramp = np.where(start[training] == 0.0, 0.0, elapsed)  # ``now - (started or now)``
        cpu_mean[training] = [8.0 + 4.0 * math.sin(2.0 * math.pi * t / 20.0) for t in ramp.tolist()]
        pss_mean[training] += np.minimum(1.0, ramp / np.maximum(1e-9, 0.6 * span[training])) * 40 * 1024

        cpu = found * np.minimum(cpu_ceiling, np.maximum(cpu_floor, cpu_mean + cpu_scale * z[0]))
        tenths = cpu * 10.0
        # top's one-decimal text rounds the exact value; ``rint(10 * v)`` agrees unless the rounded product
        # lies within an ulp of a half, so those few ask the text.
        near = np.abs(tenths - np.floor(tenths) - 0.5) < 1e-9
        cpu[near] = [float(format(v, ".1f")) for v in cpu[near].tolist()]
        cpu[~near] = np.rint(tenths[~near]) / 10.0
        memory = (own * np.maximum(pss_floor, pss_mean + pss_scale * z[2])).astype(np.int64)

        rx_bytes = (found * rx).astype(np.int64)
        tx_bytes = (found * tx).astype(np.int64)
        drip = (np.minimum(1.0, elapsed / np.maximum(1e-9, span[training])) * TRAINING_CONTROL_BYTES).astype(np.int64)
        rx_bytes[training] += drip - drip // 2
        tx_bytes[training] += drip // 2
        return SampleColumns(times, current_ua, voltage_mv, cpu, memory, rx_bytes, tx_bytes)

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
