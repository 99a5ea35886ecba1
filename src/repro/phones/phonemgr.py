"""PhoneMgr: task execution and performance measurement on phones.

§IV-C: PhoneMgr "first handles the downloading and distribution of data,
then employs Android Debug Bridge (ADB) commands to directly control the
execution process of phone devices".  It also distinguishes *Computing
Devices* (repeatedly emulating simulated devices) from *Benchmarking
Devices* (running the five-stage measured protocol of Table I), polls the
latter "at a certain frequency, organizes [the data] in real-time, and
uploads it to the cloud database".  Here a benchmarking phone's round is
one :class:`BenchmarkRecord` (its samples and its stage boundaries), and
the task's result carries the records: that is the upload, and every
reader — Table I, Fig. 5, the trace's ``bench_stage`` spans — reads them.

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
* **One sampling pass per record** — nothing polls while a round runs.
  A benchmarking phone's state changes only at its protocol's own
  commands; the protocol notes it there and, when it closes (or
  :meth:`PhoneMgr.abort` cuts it short), computes its record's samples in
  one array pass (:meth:`~repro.phones.phone.VirtualPhone.read_sensors`):
  the ticks of a lattice ``first, first + poll_interval, ...`` shared by
  the phones registered while it runs, plus the stage-boundary snaps, in
  the order a recurring kernel tick would have fired them and equal to
  one (``tests/reference/sampler_reference.py`` keeps that ticker).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from collections.abc import Callable, Generator

import numpy as np

from repro.cloud.sink import OutcomeSink
from repro.cluster.rounds import DeviceColumns, SlotQueue, TierPlan, TierRounds
from repro.deviceflow.messages import MessageBlock
from repro.ml.backends import DEVICE_BACKEND, NumericBackend
from repro.ml.fedavg import ModelUpdate
from repro.phones.adb import SimulatedAdb
from repro.phones.apk import ApkStage, TrainingApk
from repro.phones.cost import PhysicalCostModel
from repro.phones.metrics import DeviceMetricSample, SampleColumns, StageSummary, integrate_energy_mah
from repro.phones.phone import VirtualPhone, session_accounts
from repro.simkernel import AllOf, Event, RandomStreams, Signal, Simulator, Timeout
from repro.simkernel.processes import Waitable


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
    """Everything measured on one benchmarking phone in one round.

    ``device_id`` is the simulated device the phone emulated that round.
    The samples are ``columns``, in time order; they land when the
    round's protocol closes (or an abort cuts it short).
    """

    serial: str
    device_id: str
    round_index: int
    columns: SampleColumns = field(default_factory=SampleColumns.empty)
    boundaries: list[tuple[ApkStage, float, float]] = field(default_factory=list)

    @property
    def samples(self) -> list[DeviceMetricSample]:
        """The samples one object each (built from :attr:`columns` on every access)."""
        return self.columns.rows(self.serial)

    def stage_summaries(self) -> list[StageSummary]:
        """Table-I rows reconstructed from the sampled series (each stage window found by bisection)."""
        columns = self.columns
        timestamps = columns.timestamp
        total_bytes = columns.rx_bytes + columns.tx_bytes
        summaries = []
        for stage, start, end in self.boundaries:
            lo = int(np.searchsorted(timestamps, start - 1e-9, side="left"))
            hi = int(np.searchsorted(timestamps, end + 1e-9, side="right"))
            comm_kb = float(total_bytes[hi - 1] - total_bytes[lo]) / 1024.0 if hi - lo >= 2 else 0.0
            summaries.append(
                StageSummary(
                    stage=int(stage),
                    label=stage.label,
                    power_mah=integrate_energy_mah(timestamps[lo:hi], columns.current_ua[lo:hi]),
                    duration_min=(end - start) / 60.0,
                    comm_kb=comm_kb,
                )
            )
        return summaries


class _Lattice:
    """The benchmark sampler's tick times, ``first``, ``first + interval``, ... by repeated addition.

    A lattice starts at the registration that finds none running and ends
    at the first tick that finds none of its phones active: ``stop`` is
    that tick's index once the last active phone has deactivated.
    """

    __slots__ = ("ticks", "interval", "active", "stop")

    def __init__(self, first: float, interval: float) -> None:
        self.ticks = [first]
        self.interval = interval
        self.active = 0
        self.stop: int | None = None

    def count_before(self, time: float) -> int:
        """Ticks earlier than ``time``; :attr:`ticks` then runs past ``time``."""
        ticks = self.ticks
        while ticks[-1] <= time:
            steps = np.full(int((time - ticks[-1]) / self.interval) + 2, self.interval)
            steps[0] = ticks[-1]
            ticks += np.cumsum(steps)[1:].tolist()  # a recurring tick's ``now + interval``, in order
        return bisect_left(ticks, time)

    def count_through(self, time: float) -> int:
        """Ticks at or before ``time``."""
        k = self.count_before(time)
        return k + (self.ticks[k] == time)


class _Sampling(Waitable):
    """One benchmarking protocol's place on its lattice, and what its samples will read.

    ``seen`` counts the ticks that fired before the protocol's latest
    event: the kernel fires equal times in scheduling order, so a tick at
    that event's instant fired first iff the tick before it fired before
    the event's predecessor.  Tick ``k`` in ``[first, end)`` samples the
    phone in the state of the last capture with ``seen <= k``; a boundary
    snap follows the ticks counted at its event.  The closed protocol
    waits on it for the tick after its close (one event, :meth:`wake`).
    """

    __slots__ = ("phone", "record", "lattice", "first", "end", "seen", "states", "state_seen", "snaps", "resume",
                 "waiter", "woken")

    def __init__(self, phone: VirtualPhone, record: BenchmarkRecord, lattice: _Lattice, first: int) -> None:
        self.phone = phone
        self.record = record
        self.lattice: _Lattice | None = lattice
        self.first = self.end = self.seen = first
        self.states: list[float] = []  # the captures' sensor states, end to end
        self.state_seen: list[int] = []
        self.snaps: list[tuple[int, int, float]] = []  # (ticks before, state, time)
        self.resume: Event | None = None
        self.waiter: Callable | None = None
        self.woken = False

    def step(self, now: float) -> None:
        """Enter the protocol's next event, at ``now``."""
        lattice = self.lattice
        if lattice is not None:
            k = lattice.count_before(now)
            self.seen = k + 1 if k and lattice.ticks[k] == now and self.seen >= k else k

    def capture(self, package: str) -> None:
        """Note the phone's state: the ticks from here until the next capture read it."""
        self.states += self.phone.sensor_state(package)
        self.state_seen.append(self.seen)

    def snap(self, package: str, now: float) -> None:
        """A synchronous sample now (a stage boundary)."""
        self.capture(package)
        self.snaps.append((self.seen, len(self.state_seen) - 1, now))

    def subscribe(self, sim: Simulator, callback: Callable) -> None:
        self.waiter = callback
        if self.lattice is None:  # an abort cut the protocol short: resume one hop from now
            sim.schedule(0.0, self.wake)
        else:
            self.resume = sim.schedule_at(self.lattice.ticks[self.end], self.wake)

    def wake(self) -> None:
        """Resume the closed protocol."""
        self.woken = True
        self.waiter(self.phone.serial, None)


def _tie_order(clock: np.ndarray, finished: np.ndarray) -> list[int] | None:
    """Plan rows in the order per-device events would deliver them; ``None`` when that is phone order.

    ``clock`` is a plan's (phones x (3 waves + 1)) clock and ``finished``
    its completion cells by plan row (``wave * phones + phone``).  Per
    device, each leg's event is scheduled when the one before it fires, and
    the kernel fires equal times in scheduling order, so an event ranks by
    (time, predecessor's rank), back to the round's start in phone order.
    Ties that are all runs of neighbouring phones in one wave, with clocks
    that agree up to it, keep phone order; any other tie ranks every cell
    until nothing changes.
    """
    n = clock.shape[0]
    grid = clock[:, 3::3].T  # (waves, phones); the last wave's cells past ``finished`` are padding
    together = grid[:, 1:] == grid[:, :-1]
    together[-1, finished.size - (len(grid) - 1) * n - 1 :] = False
    differs = clock[1:] != clock[:-1]
    agree = np.where(differs.any(axis=1), differs.argmax(axis=1), clock.shape[1])  # phone p + 1 with phone p
    ties = np.count_nonzero(np.diff(np.sort(finished, kind="stable")) == 0)
    # Wave w's cell is column 3w + 3: the clocks must agree on every column before it.
    if ties == np.count_nonzero(together) and not (together & (np.arange(len(grid))[:, None] >= agree // 3)).any():
        return None
    # A training end resumes its device through a zero-delay event of its own.
    chain = np.repeat(clock, [1] + [1, 2, 1] * (clock.shape[1] // 3), axis=1)
    times = chain.ravel()
    rank = np.argsort(np.argsort(times, kind="stable"))
    before = np.empty(chain.shape, dtype=rank.dtype)
    before[:, 0] = np.arange(n)
    while True:
        before[:, 1:] = rank.reshape(chain.shape)[:, :-1]
        settled = np.argsort(np.lexsort((before.ravel(), times)))
        if np.array_equal(settled, rank):
            break
        rank = settled
    order = np.argsort(rank.reshape(chain.shape)[:, 4::4].T.ravel()[: finished.size])
    if np.array_equal(order, np.lexsort((np.arange(finished.size) % n, finished))):
        return None
    return order.tolist()


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
        ``PlatformConfig.poll_interval``); each sample lands in its
        phone's :class:`BenchmarkRecord` of the round.
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
        busy_registry: set[str],
        poll_interval: float = 1.0,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        super().__init__(sim, streams)
        self.adb = adb
        self.phones = list(phones)
        self.cost_model = cost_model
        self.apk = TrainingApk()
        self.poll_interval = float(poll_interval)
        self.plans: list[PhoneAssignment] = []
        self.computing_phones: dict[str, list[VirtualPhone]] = {}
        self.benchmark_phones: dict[str, list[VirtualPhone]] = {}
        self.benchmark_records: list[BenchmarkRecord] = []
        self._busy = busy_registry
        # The benchmark sampler: its tick lattice and the protocols on it.
        self._lattice: _Lattice | None = None
        self._samplings: list[_Sampling] = []

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
        for sampling in self._samplings:
            if sampling.resume is not None and not sampling.woken:  # closed, waiting for its tick
                self.sim.cancel(sampling.resume)
                self.sim.schedule(0.0, sampling.wake)
            elif sampling.resume is None:
                # Cut short.  A tick at this instant counts as fired: an abort
                # runs a zero-delay hop after the failure it handles.
                sampling.end = max(sampling.first, sampling.lattice.count_through(self.sim.now))
                self._record_samples(sampling)
                sampling.lattice = None
        self._samplings = []
        self._lattice = None
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

        Devices finishing at one instant deliver in the order per-device
        events would (:func:`_tie_order`), each in a queue of its own where
        that is not phone order.  Ties across plans deliver in plan order.
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
        finished = clock[:, 3::3].T.ravel()[:total]
        order = _tie_order(clock, finished)
        if order is not None:
            hooks = {range(total)[rows][-1]: replay for rows, replay in queues}
            queues = [(slice(row, row + 1), hooks.get(row, lambda: None)) for row in order]
        return finished, queues

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
        record = BenchmarkRecord(serial=phone.serial, device_id=device.device_ids[0], round_index=round_index)
        self.benchmark_records.append(record)
        window = self.cost_model.stage_window
        latency = self.cost_model.msp_control_latency if phone.is_msp else 0.0
        package = self.apk.package
        sampling = self._join_sampler(phone, record)

        def pause(delay: float) -> Generator:
            if delay > 0:
                yield Timeout(delay)
                sampling.step(self.sim.now)

        def command(text: str) -> None:
            self.adb.shell(phone.serial, text)
            sampling.capture(package)

        def boundary(stage: ApkStage, start: float) -> None:
            # Snap a synchronous sample at the transition so per-stage
            # deltas (energy, communication) are anchored exactly at the
            # boundary instead of at the nearest polling tick.
            sampling.snap(package, self.sim.now)
            record.boundaries.append((stage, start, self.sim.now))
            if sampling.lattice is None:  # cut short by an abort: no tick left to wait for
                self._record_samples(sampling)

        # Stage 1: clear background, APK not running.
        yield from pause(latency)
        command(f"pm clear {package}")
        start = self.sim.now
        yield from pause(window)
        boundary(ApkStage.NO_APK, start)

        # Stage 2: launch the APK, do not train yet.
        yield from pause(latency)
        command(f"am start -n {self.apk.component}")
        start = self.sim.now
        yield from pause(window)
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
        sampling.capture(package)
        yield done
        sampling.step(self.sim.now)  # the phone's own finish event, which resumed this one
        sampling.capture(package)
        sampling.step(self.sim.now)
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
        yield from pause(window)
        boundary(ApkStage.POST_TRAINING, start)

        # Stage 5: exit the APK and clear background tasks.
        yield from pause(latency)
        command(f"am force-stop {package}")
        start = self.sim.now
        yield from pause(window)
        boundary(ApkStage.APK_CLOSURE, start)
        self._leave_sampler(sampling)
        phone.set_idle()
        yield sampling

    # ------------------------------------------------------------------
    # benchmark sampling
    # ------------------------------------------------------------------
    def _join_sampler(self, phone: VirtualPhone, record: BenchmarkRecord) -> _Sampling:
        """Put a protocol starting now on the sampler's lattice (starting one if none runs).

        A lattice's first tick fires after the registrations of its instant (one :meth:`run_round` starts
        them together); a later tick at this instant was scheduled before this registration and fired first.
        """
        now = self.sim.now
        lattice = self._lattice
        if lattice is None or (lattice.stop is not None and now >= lattice.ticks[lattice.stop]):
            lattice = self._lattice = _Lattice(now, self.poll_interval)
            self._samplings = [s for s in self._samplings if not s.woken]
        first = lattice.count_through(now) - (now == lattice.ticks[0])
        lattice.active += 1
        lattice.stop = None
        sampling = _Sampling(phone, record, lattice, first)
        self._samplings.append(sampling)
        sampling.capture(self.apk.package)
        return sampling

    def _leave_sampler(self, sampling: _Sampling) -> None:
        """The protocol closed: record the ticks before now and its snaps (it resumes at the next one).

        The lattice stops at that tick if no phone is active.
        """
        lattice = sampling.lattice
        if lattice is None:
            return
        sampling.end = sampling.seen
        lattice.active -= 1
        if not lattice.active:
            lattice.stop = sampling.seen
        self._record_samples(sampling)

    def _record_samples(self, sampling: _Sampling) -> None:
        """Record the samples a protocol owes its record in one array pass: ticks ``[first, end)`` and the snaps."""
        first = sampling.first
        times = sampling.lattice.ticks[first : sampling.end] if sampling.end > first else []
        which = (np.searchsorted(sampling.state_seen, np.arange(first, sampling.end), side="right") - 1).tolist()
        for offset, (seen, state, at) in enumerate(sampling.snaps):  # after the ticks counted at its event
            times.insert(max(seen - first, 0) + offset, at)
            which.insert(max(seen - first, 0) + offset, state)
        columns = sampling.phone.read_sensors(np.array(times), sampling.states, np.array(which, dtype=np.intp))
        record = sampling.record
        record.columns = record.columns.extended(columns) if len(record.columns) else columns
        sampling.first = sampling.end
        sampling.snaps = []
