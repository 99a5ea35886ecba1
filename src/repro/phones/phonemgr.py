"""PhoneMgr: task execution and performance measurement on phones.

§IV-C: PhoneMgr "first handles the downloading and distribution of data,
then employs Android Debug Bridge (ADB) commands to directly control the
execution process of phone devices".  It also distinguishes *Computing
Devices* (repeatedly emulating simulated devices) from *Benchmarking
Devices* (running the five-stage measured protocol of Table I), polls the
latter "at a certain frequency, organizes [the data] in real-time, and
uploads it to the cloud database".

Execution strategy:

* **One clock pass per plan** — the round is the shared engine's
  (:class:`~repro.cluster.rounds.TierRounds`); this tier supplies the
  completion-time kernel: every computing phone's push / training /
  upload queue is a row of one matrix and one ``cumsum(axis=1)`` gives
  every finish time, instead of a generator and three heap events per
  emulated device.
* **Drain-time replay** — the same pass computes every session's account
  increments (:func:`~repro.phones.phone.session_accounts`); once a
  phone's queue drains, its battery, stage, WLAN and session accounts are
  ``np.add.accumulate`` passes seeded with its state then
  (:meth:`~repro.phones.phone.VirtualPhone.replay_training_sessions`).
  Both equal the per-device loops of ``tests/reference/tier_reference.py``
  and the scalar ones of ``tests/reference/phone_reference.py`` bit for bit.
* **Shared benchmark sampler ticker** — one recurring kernel tick
  (:meth:`~repro.simkernel.Simulator.schedule_recurring`) per PhoneMgr
  samples every active benchmarking phone, with timestamps and
  sample contents (including tie-breaking against stage boundaries)
  identical to one polling loop per phone; samples read the virtual
  sensors directly (:func:`~repro.phones.metrics.direct_metric_sample`)
  instead of round-tripping ADB strings, and the sensors' noise comes in
  blocks (:class:`~repro.simkernel.random.NormalReader`), value for value
  the scalar draws.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from collections.abc import Callable, Generator
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.sink import OutcomeSink
from repro.cluster.rounds import DeviceColumns, SlotQueue, TierPlan, TierRounds
from repro.deviceflow.messages import MessageBlock
from repro.ml.backends import DEVICE_BACKEND, NumericBackend
from repro.ml.fedavg import ModelUpdate
from repro.phones.adb import SimulatedAdb
from repro.phones.apk import ApkStage, TrainingApk
from repro.phones.cost import PhysicalCostModel
from repro.phones.metrics import (
    DeviceMetricSample,
    StageSummary,
    direct_metric_sample,
    integrate_energy_mah,
)
from repro.phones.phone import VirtualPhone, session_accounts
from repro.simkernel import AllOf, RandomStreams, RecurringTimeout, Signal, Simulator, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.tracing import Tracer


@dataclass(kw_only=True)
class PhoneAssignment(TierPlan):
    """The physical tier's share of one device grade (see :class:`TierPlan`).

    Attributes
    ----------
    devices:
        Computing devices emulated on phones (``N - q - x`` of them).
    benchmarking:
        Devices reserved for performance measurement (``q`` of them);
        "these devices are not reused as computation units in a single
        round" (§VI-B1).
    n_phones:
        Computing phones requested (the allocation model's ``m``).
    """

    benchmarking: DeviceColumns
    n_phones: int
    backend: NumericBackend = DEVICE_BACKEND

    def __post_init__(self) -> None:
        if self.n_phones < 0:
            raise ValueError(f"{self.grade!r} plan: n_phones must be >= 0")
        if len(self.devices) and self.n_phones == 0:
            raise ValueError(f"{self.grade!r} plan: computing devices require at least one phone")
        super().__post_init__()
        self._check_columns("benchmarking", self.benchmarking)


@dataclass
class BenchmarkRecord:
    """Everything measured on one benchmarking phone in one round."""

    serial: str
    round_index: int
    samples: list[DeviceMetricSample] = field(default_factory=list)
    boundaries: list[tuple[ApkStage, float, float]] = field(default_factory=list)

    def stage_summaries(self) -> list[StageSummary]:
        """Table-I rows reconstructed from the sampled series.

        Samples are appended in time order (the polling tick plus the
        synchronous boundary snaps), so each stage window is located by
        bisection over the timestamps instead of rescanning every sample
        per stage — O(stages·log n + n) instead of O(stages·n), which
        matters at high poll rates.
        """
        timestamps = [sample.timestamp for sample in self.samples]
        summaries = []
        for stage, start, end in self.boundaries:
            lo = bisect_left(timestamps, start - 1e-9)
            hi = bisect_right(timestamps, end + 1e-9)
            window = self.samples[lo:hi]
            energy = integrate_energy_mah(window)
            comm_kb = (
                (window[-1].total_bytes - window[0].total_bytes) / 1024.0
                if len(window) >= 2
                else 0.0
            )
            summaries.append(
                StageSummary(
                    stage=int(stage),
                    label=stage.label,
                    power_mah=energy,
                    duration_min=(end - start) / 60.0,
                    comm_kb=comm_kb,
                )
            )
        return summaries


class _SampledPhone:
    """One benchmarking phone's registration with the shared sampler ticker."""

    __slots__ = ("phone", "record", "active", "stopped")

    def __init__(self, phone: VirtualPhone, record: BenchmarkRecord) -> None:
        self.phone = phone
        self.record = record
        self.active = True
        self.stopped = Signal(name=f"{phone.serial}.sampler")


class PhoneMgr(TierRounds):
    """Manages the physical devices cluster for one SimDC deployment.

    Parameters
    ----------
    sim / adb / streams:
        Shared simulation plumbing.
    phones:
        The full physical fleet (local + provisioned MSP phones).
    cost_model:
        beta/lambda/stage-window constants.
    poll_interval:
        Benchmarking sampling period in seconds (1 Hz default;
        ``PlatformConfig.poll_interval``).
    on_sample:
        Hook invoked per collected sample — the platform wires this to
        the cloud metrics database upload.
    busy_registry:
        Reservation registry, shared by the PhoneMgr sessions of
        concurrent tasks so they never double-book a phone.
    """

    # The same cached generator round after round, on whichever phone.
    label = "phone-tier"
    rng_stream = "phone-exec.{}"

    def __init__(
        self,
        sim: Simulator,
        adb: SimulatedAdb,
        phones: list[VirtualPhone],
        cost_model: PhysicalCostModel,
        streams: RandomStreams,
        on_sample: Callable[[DeviceMetricSample], None],
        busy_registry: set[str],
        poll_interval: float = 1.0,
        tracer: Tracer | None = None,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        super().__init__(sim, streams)
        self.adb = adb
        self.phones = list(phones)
        self.cost_model = cost_model
        self.apk = TrainingApk()
        self.poll_interval = float(poll_interval)
        self.on_sample = on_sample
        self.tracer = tracer
        self.plans: list[PhoneAssignment] = []
        self.computing_phones: dict[str, list[VirtualPhone]] = {}
        self.benchmark_phones: dict[str, list[VirtualPhone]] = {}
        self.benchmark_records: list[BenchmarkRecord] = []
        self._busy = busy_registry
        # The shared benchmark sampler ticker.
        self._sampler_entries: list[_SampledPhone] = []
        self._sampler_handle: RecurringTimeout | None = None

    # ------------------------------------------------------------------
    # device selection
    # ------------------------------------------------------------------
    def available_phones(self, grade: str) -> list[VirtualPhone]:
        """Idle phones of a grade, local devices first (cheaper control)."""
        free = [
            phone
            for phone in self.phones
            if phone.spec.grade == grade and phone.serial not in self._busy
        ]
        return sorted(free, key=lambda p: (p.is_msp, p.serial))

    def select_phones(self, grade: str, count: int) -> list[VirtualPhone]:
        """Reserve ``count`` phones of ``grade`` (raises if short)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        candidates = self.available_phones(grade)
        if len(candidates) < count:
            raise RuntimeError(
                f"need {count} {grade}-grade phones, only {len(candidates)} available"
            )
        chosen = candidates[:count]
        for phone in chosen:
            self._busy.add(phone.serial)
        return chosen

    def release_phones(self, phones: list[VirtualPhone]) -> None:
        """Return phones to the pool."""
        for phone in phones:
            self._busy.discard(phone.serial)

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def prepare(self, plans: list[PhoneAssignment], task_id: str) -> Generator:
        """Select phones, install the APK, start the compute framework.

        Computing phones pay the framework-startup lambda here (once per
        task); benchmarking phones stay cold — their five-stage protocol
        starts from a cleared state every round.

        Selection is transactional: if a later plan cannot be satisfied
        (or an APK install fails), every phone already reserved for this
        task is released before the error propagates, so sibling tasks
        sharing the busy registry see no leaked reservations.
        """
        if self.plans:
            raise RuntimeError("PhoneMgr already has a prepared task")
        self.task_id = task_id
        self.plans = list(plans)
        startup_targets: list[tuple[VirtualPhone, str]] = []
        reserved: list[VirtualPhone] = []
        try:
            for plan in self.plans:
                computing = self.select_phones(plan.grade, plan.n_phones) if len(plan.devices) else []
                reserved.extend(computing)
                benchmarking = self.select_phones(plan.grade, len(plan.benchmarking))
                reserved.extend(benchmarking)
                self.computing_phones[plan.grade] = computing
                self.benchmark_phones[plan.grade] = benchmarking
                for phone in computing + benchmarking:
                    self.adb.install(phone.serial, self.apk)
                startup_targets.extend((phone, plan.grade) for phone in computing)
        except Exception:
            self.release_phones(reserved)
            self.plans = []
            self.computing_phones.clear()
            self.benchmark_phones.clear()
            raise
        # Framework startups launch only after *every* plan has selected
        # and installed — a mid-prepare failure must not leave orphaned
        # startup callbacks driving phones that were just released.
        startups = []
        for phone, grade in startup_targets:
            startups.append(Signal(name=f"{task_id}.{phone.serial}.startup"))
            self.sim.schedule(0.0, self._start_framework, phone, grade, startups[-1], False)
        if startups:
            yield AllOf(startups)

    def _start_framework(self, phone: VirtualPhone, grade: str, started: Signal, latency_paid: bool) -> None:
        """Kernel callbacks starting one phone's framework; ``started`` fires once it is up.

        Control latency (MSP phones), ``pm clear`` + ``am start``, then the
        lambda startup.  A failure fails ``started``: this task's
        ``prepare`` fails, and nothing else.
        """
        try:
            latency = self.cost_model.msp_control_latency
            if not latency_paid and phone.is_msp and latency > 0:
                self.sim.schedule(latency, self._start_framework, phone, grade, started, True)
                return
            self.adb.shell(phone.serial, f"pm clear {self.apk.package}")
            self.adb.shell(phone.serial, f"am start -n {self.apk.component}")
            self.sim.schedule(self.cost_model.startup_duration(grade), started.fire)
        except Exception as exc:
            started.fail(exc)

    def _control_latency(self, phone: VirtualPhone) -> Generator:
        if phone.is_msp and self.cost_model.msp_control_latency > 0:
            yield Timeout(self.cost_model.msp_control_latency)

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def run_round(
        self,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        sink: OutcomeSink | None,
    ) -> Generator:
        """Execute one round on computing + benchmarking phones.

        ``sink`` is served exactly as on the logical tier
        (:class:`~repro.cluster.rounds.TierRounds`); a wave here is one
        phone completion.  A benchmarking phone always delivers its own
        one-row block as it finishes training — the five-stage protocol
        emits mid-round regardless of sink kind.  The returned process
        resolves with ``True`` if :meth:`teardown` voided the round.
        """
        on_outcome = (lambda block: None) if sink is None else sink.accept_block
        benchmarks = [
            self.sim.process(
                self._run_benchmark_phone(
                    phone, plan, row, round_index, global_weights, global_bias, model_bytes, on_outcome
                ),
                name=f"{phone.serial}.bench{round_index}",
            )
            for plan in self.plans
            for row, phone in enumerate(self.benchmark_phones[plan.grade])
        ]
        return (yield from self._drive_round(round_index, benchmarks, global_weights, global_bias, model_bytes, sink))

    def teardown(self) -> Generator:
        """Stop APKs, idle every phone, release reservations."""
        for phones in list(self.computing_phones.values()) + list(self.benchmark_phones.values()):
            for phone in phones:
                yield from self._control_latency(phone)
                self.adb.shell(phone.serial, f"am force-stop {self.apk.package}")
                phone.set_idle()
                self.release_phones([phone])
        self._forget_task()

    def abort(self) -> None:
        """Synchronous emergency teardown after a task failure.

        Skips control-latency niceties: force-stops any running APK,
        idles every reserved phone and returns it to the pool so sibling
        and queued tasks are unaffected by the crash.  Pending wave
        callbacks from the crashed round are voided via the epoch counter.
        """
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

    def _forget_task(self) -> None:
        self._void_rounds()
        self.plans = []
        self.computing_phones.clear()
        self.benchmark_phones.clear()

    # ------------------------------------------------------------------
    # wave-scheduled computing phones (the engine's two tier hooks)
    # ------------------------------------------------------------------
    def _numeric_block_size(self, plan: PhoneAssignment) -> int:
        """ONE stacked block across every device queued on the plan's phones."""
        return len(plan.devices)

    def _completion_times(
        self, plan: PhoneAssignment, model_bytes: int, upload_bytes: int
    ) -> tuple[np.ndarray, list[SlotQueue]]:
        """One clock pass per plan.

        Phone ``p``'s round-robin queue (rows ``p, p + n_phones, ...``) is
        row ``p`` of a (phones x waves) layout, short queues padded at the
        end; one ``cumsum(axis=1)`` runs every row's float-add chain
        ``((now + push) + training) + upload`` — the kernel's ``now + delay``
        scheduling, in place.  A phone's state is replayed from the same
        clock's :func:`session_accounts` once its queue drains.
        """
        total = len(plan.devices)
        n_phones = len(self.computing_phones[plan.grade])
        phones = self.computing_phones[plan.grade][:total]
        waves = -(-total // n_phones)
        duration = self.cost_model.training_duration(plan.grade, plan.flow.total_work)
        payloads = np.zeros(waves * len(phones))
        payloads[:total] = plan.devices.staged_bytes() + model_bytes
        bandwidth = np.array([phone.spec.network_bandwidth_bps for phone in phones], dtype=np.float64)
        clock = np.empty((len(phones), 3 * waves + 1))
        clock[:, 0] = self.sim.now
        clock[:, 1::3] = self.adb.push_durations([phone.serial for phone in phones], payloads.reshape(waves, -1).T)
        clock[:, 2::3] = duration
        clock[:, 3::3] = (upload_bytes / bandwidth)[:, None]
        np.cumsum(clock, axis=1, out=clock)
        starts = clock[:, 1::3]
        accounts = session_accounts(phones, starts, clock[:, 2::3])
        queues: list[SlotQueue] = []
        for p, phone in enumerate(phones):
            k = len(range(p, total, n_phones))
            replay = partial(phone.replay_training_sessions, float(starts[p, 0]), float(starts[p, k - 1]),
                             duration, upload_bytes, accounts[:, p, : 2 * k + 1])
            queues.append((slice(p, total, n_phones), replay))
        return clock[:, 3::3].T.ravel()[:total], queues

    # ------------------------------------------------------------------
    # benchmarking phones (Table I five-stage protocol)
    # ------------------------------------------------------------------
    def _run_benchmark_phone(
        self,
        phone: VirtualPhone,
        plan: PhoneAssignment,
        row: int,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        on_outcome: Callable[[MessageBlock], None],
    ) -> Generator:
        """The measured five-stage protocol of Table I on one phone.

        The phone emulates row ``row`` of ``plan.benchmarking`` and hands
        ``on_outcome`` that device's round as a one-row block.
        """
        device = plan.benchmarking[row : row + 1]
        device_id = device.device_ids[0]
        record = BenchmarkRecord(serial=phone.serial, round_index=round_index)
        self.benchmark_records.append(record)
        window = self.cost_model.stage_window
        entry = self._register_sampled_phone(phone, record)

        def boundary(stage: ApkStage, start: float) -> None:
            # Snap a synchronous sample at the transition so per-stage
            # deltas (energy, communication) are anchored exactly at the
            # boundary instead of at the nearest polling tick.
            self._record_sample(phone, record)
            record.boundaries.append((stage, start, self.sim.now))
            if self.tracer is not None:
                self.tracer.record_bench_stage(
                    self.task_id,
                    phone.serial,
                    device_id,
                    round_index,
                    stage.label,
                    start,
                    self.sim.now,
                )

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
        # Resume at the tick after deactivation, when the shared ticker
        # fires ``stopped``.
        yield entry.stopped

    # ------------------------------------------------------------------
    # benchmark sampling (shared ticker)
    # ------------------------------------------------------------------
    def _register_sampled_phone(self, phone: VirtualPhone, record: BenchmarkRecord) -> _SampledPhone:
        """Join the shared sampler ticker (starting it on first use)."""
        entry = _SampledPhone(phone, record)
        self._sampler_entries.append(entry)
        if self._sampler_handle is None:
            # First fire *now*: a phone's opening sample lands at the
            # timestamp it registers.
            self._sampler_handle = self.sim.schedule_recurring(
                self.poll_interval, self._sampler_tick, first_at=self.sim.now
            )
        return entry

    def _sampler_tick(self) -> None:
        """One shared tick: sample every active phone, in registration order.

        Deactivated phones get their ``stopped`` signal fired instead, one
        tick after deactivation.  The ticker cancels itself once nobody is
        registered, so no samples land between rounds (the Fig. 5 no-data
        windows).
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

    def _record_sample(self, phone: VirtualPhone, record: BenchmarkRecord) -> None:
        """Collect one sample and forward it to the upload hook.

        Reads the virtual sensors directly (:func:`direct_metric_sample`
        — bit-identical to issuing the five raw ADB commands and parsing
        their text, including the parse round-trips; that pipeline is the
        oracle in ``tests/reference/adb_reference.py``).
        """
        sample = direct_metric_sample(self.sim.now, phone, self.apk.package)
        record.samples.append(sample)
        self.on_sample(sample)
