"""Per-device reference implementation of the two execution tiers.

The round loops as they stood before the tiers kept only the wave
schedule: one start-up process per logical actor (boot, then its data
pull) and one generator per actor paying two timeouts per queued device,
one generator per computing phone paying push / training / upload per
device, and one polling process per benchmarking phone that issues the
five raw ADB commands and parses their text (``reference.adb_reference``).
They define what the columnar rounds in ``repro.cluster.runner`` and
``repro.phones.phonemgr`` must reproduce exactly — outcomes and their
order, finish times, sample series, Table-I summaries, phone battery /
WLAN / session state and the final state of every random stream — so the
differential suites drive the same plans through both and compare bit for
bit.  Do not optimise it.

Drive a simulation holding reference tiers one event at a time
(:func:`run_per_event`), the loop these generators were written against.
Shared with ``src/``: the kernel, the phone tier's ``prepare`` and both
tiers' ``teardown``; the five-stage benchmarking protocol is the ticker
oracle's (``reference.sampler_reference``).  A device's
flow runs through the per-device numeric oracle, ``reference.ml_reference``.

The per-device records live here too: :class:`DeviceRoundOutcome` is what
one device produced in one round, :class:`ReferenceRoundResult` collects
them, a reference tier hands them one at a time to ``sink.accept`` (a
test-side method — production sinks only take blocks), and
:func:`materialize` is the per-device view of a production block.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Any

from repro.cluster.rounds import DeviceColumns
from repro.deviceflow.messages import MessageBlock
from repro.cluster.runner import LogicalSimulation
from repro.ml.fedavg import ModelUpdate
from repro.simkernel import AllOf, Simulator, Timeout

from reference.adb_reference import parse_metric_sample, parse_pgrep_pid, push_duration, text_shell
from reference.sampler_reference import TickerPhoneMgr, _SampledPhone
from reference.ml_reference import OperatorContext, execute


@dataclass
class DeviceRoundOutcome:
    """What one device produced in one round."""

    device_id: str
    grade: str
    round_index: int
    n_samples: int
    payload_bytes: int
    update: Any | None  # ModelUpdate when the run is numeric
    finished_at: float


@dataclass
class ReferenceRoundResult:
    """One tier round as the per-device loops record it."""

    round_index: int
    outcomes: list[DeviceRoundOutcome] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    aborted: bool = False

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def n_devices(self) -> int:
        return len(self.outcomes)


def materialize(block: MessageBlock) -> list[DeviceRoundOutcome]:
    """A production block's rows as outcome records, in block (row) order.

    For logical-tier plans this is also chronological (one shared wave
    clock); phone-tier plans stage per-device push bytes, so completion
    times across phones need not be sorted.
    """
    numeric = block.update_weights is not None
    return [
        DeviceRoundOutcome(
            device_id=device_id,
            grade=block.grade,
            round_index=block.round_index,
            n_samples=n_samples,
            payload_bytes=block.size_bytes,
            update=ModelUpdate(
                device_id=device_id,
                round_index=block.round_index,
                weights=block.update_weights[row].copy(),
                bias=float(block.update_biases[row]),
                n_samples=n_samples,
            )
            if numeric
            else None,
            finished_at=time,
        )
        for row, (device_id, n_samples, time) in enumerate(
            zip(block.device_ids, block.n_samples.tolist(), block.finished_at.tolist())
        )
    ]


def all_outcomes(blocks) -> list[DeviceRoundOutcome]:
    """Every device of a sequence of production blocks, block after block."""
    return [outcome for block in blocks for outcome in materialize(block)]


def run_per_event(sim: Simulator) -> float:
    """Drain the queue through the single-event primitive."""
    while sim.step():
        pass
    return sim.now


def rows(plan, columns: DeviceColumns) -> list[SimpleNamespace]:
    """The materialised view of a plan's columns: one record per device."""
    datasets = columns.datasets or [None] * len(columns)
    return [
        SimpleNamespace(device_id=device_id, grade=plan.grade, n_samples=n_samples, dataset=dataset)
        for device_id, n_samples, dataset in zip(columns.device_ids, columns.n_samples.tolist(), datasets)
    ]


def execute_flow(plan, assignment: SimpleNamespace, round_index: int, global_weights, global_bias, rng):
    """One device's flow against its own :class:`OperatorContext`."""
    if assignment.dataset is None:
        raise RuntimeError(f"device {assignment.device_id} has no dataset but the run is numeric")
    context = OperatorContext(
        device_id=assignment.device_id,
        grade=plan.grade,
        dataset=assignment.dataset,
        feature_dim=plan.feature_dim,
        backend=plan.backend,
        global_weights=global_weights,
        global_bias=global_bias,
        round_index=round_index,
        rng=rng,
    )
    execute(plan.flow, context)
    return context.outputs.get("update")


def _outcome(assignment, plan, round_index, payload, update, now) -> DeviceRoundOutcome:
    return DeviceRoundOutcome(
        device_id=assignment.device_id,
        grade=plan.grade,
        round_index=round_index,
        n_samples=assignment.n_samples,
        payload_bytes=payload,
        update=update,
        finished_at=now,
    )


class _RecordsRounds:
    """A reference tier keeps a :class:`ReferenceRoundResult` per round (production keeps none)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rounds: list[ReferenceRoundResult] = []


class ReferenceLogicalSimulation(_RecordsRounds, LogicalSimulation):
    """Logical tier whose actors start one by one and work through their queues device by device."""

    def prepare(self, plans, task_id) -> Generator:
        """Runner setup, then one process per actor: boot, then pull its share of the grade's data."""
        if self.placement_group is not None:
            raise RuntimeError("LogicalSimulation is already prepared")
        self.task_id = task_id
        self.plans = list(plans)
        bundles = [plan.bundle for plan in self.plans for _ in range(plan.n_actors)]
        if not bundles:
            return
        group = self.cluster.allocate(bundles)
        if group is None:
            raise RuntimeError(f"cluster cannot host {len(bundles)} bundles for task {task_id!r}")
        self.placement_group = group
        yield Timeout(self.cost_model.runner_setup)
        self.actor_ids = {plan.grade: [f"{task_id}.{plan.grade}.{i}" for i in range(plan.n_actors)]
                          for plan in self.plans}
        startups = []
        for plan in self.plans:
            per_actor_bytes = plan.dataset_bytes() // max(1, plan.n_actors)
            for actor_id in self.actor_ids[plan.grade]:
                startups.append(
                    self.sim.process(self._start_actor(actor_id, per_actor_bytes), name=f"{actor_id}.startup")
                )
        yield AllOf(startups)

    def _start_actor(self, actor_id: str, data_bytes: int) -> Generator:
        yield self.sim.process(self._actor_wait(self.cost_model.actor_startup), name=f"{actor_id}.boot")
        yield self.sim.process(
            self._actor_wait(self.cost_model.transfer_duration(data_bytes)), name=f"{actor_id}.data-dl"
        )

    @staticmethod
    def _actor_wait(delay: float) -> Generator:
        """One actor step (start-up or a storage pull), run as its own process."""
        yield Timeout(delay)

    def run_round(self, round_index, global_weights, global_bias, model_bytes, sink=None) -> Generator:
        if self.placement_group is None and self.plans:
            raise RuntimeError("call prepare() before run_round()")
        result = ReferenceRoundResult(round_index=round_index, started_at=self.sim.now)

        def collect(outcome: DeviceRoundOutcome) -> None:
            result.outcomes.append(outcome)
            if sink is not None:
                sink.accept(outcome)

        processes = [
            self.sim.process(
                self._actor_round(
                    actor_id, rows(plan, plan.devices)[a :: plan.n_actors], plan,
                    round_index, global_weights, global_bias, model_bytes, collect,
                ),
                name=f"{actor_id}.round{round_index}",
            )
            for plan in self.plans
            for a, actor_id in enumerate(self.actor_ids[plan.grade])
        ]
        if processes:
            yield AllOf(processes)
        result.finished_at = self.sim.now
        self.rounds.append(result)
        return result.aborted

    def _actor_round(
        self, actor_id, queue, plan, round_index, global_weights, global_bias, model_bytes, collect
    ) -> Generator:
        """Model download once per actor, then alpha + result upload per device (§VI-B4)."""
        if queue:
            yield self.sim.process(
                self._actor_wait(self.cost_model.transfer_duration(model_bytes)), name=f"{actor_id}.model-dl"
            )
        for assignment in queue:
            yield Timeout(self.cost_model.device_round_duration(assignment.grade, plan.flow.total_work))
            update, payload = None, model_bytes
            if plan.numeric:
                # Keyed by device, never by actor: which slot simulates a
                # device is an execution detail.
                rng = self.streams.get(f"device.{assignment.device_id}.sgd")
                update = execute_flow(plan, assignment, round_index, global_weights, global_bias, rng)
                if update is not None:
                    payload = update.wire_size(update.weights.size)
            yield Timeout(self.cost_model.transfer_duration(payload))
            collect(_outcome(assignment, plan, round_index, payload, update, self.sim.now))


class ReferencePhoneMgr(_RecordsRounds, TickerPhoneMgr):
    """Phone tier with per-device emulation loops and per-phone ADB-text samplers."""

    def run_round(self, round_index, global_weights, global_bias, model_bytes, sink=None) -> Generator:
        result = ReferenceRoundResult(round_index=round_index, started_at=self.sim.now)
        epoch = self._epoch

        def collect(outcome: DeviceRoundOutcome) -> None:
            result.outcomes.append(outcome)
            if sink is not None:
                sink.accept(outcome)

        def collect_block(block: MessageBlock) -> None:
            # The shared five-stage protocol emits its device as a one-row block.
            for outcome in materialize(block):
                collect(outcome)

        processes = []
        for plan in self.plans:
            n_queues = max(1, plan.n_phones)
            for p, phone in enumerate(self.computing_phones[plan.grade]):
                processes.append(
                    self.sim.process(
                        self._computing_phone_round(
                            phone, rows(plan, plan.devices)[p::n_queues], plan,
                            round_index, global_weights, global_bias, model_bytes, collect,
                        ),
                        name=f"{phone.serial}.round{round_index}",
                    )
                )
            for row, phone in enumerate(self.benchmark_phones[plan.grade]):
                processes.append(
                    self.sim.process(
                        self._run_benchmark_phone(
                            phone, plan, row, round_index, global_weights, global_bias, model_bytes, collect_block
                        ),
                        name=f"{phone.serial}.bench{round_index}",
                    )
                )
        if processes:
            yield AllOf(processes)
        result.finished_at = self.sim.now
        result.aborted = epoch != self._epoch
        self.rounds.append(result)
        return result.aborted

    def _computing_phone_round(
        self, phone, queue, plan, round_index, global_weights, global_bias, model_bytes, collect
    ) -> Generator:
        """Sequentially emulate the queued devices on one phone."""
        for assignment in queue:
            # `is not None`, not truthiness: a zero-record dataset stages its (zero) real bytes.
            data_bytes = assignment.dataset.nbytes() if assignment.dataset is not None else 64 * assignment.n_samples
            yield Timeout(push_duration(self.adb, phone.serial, data_bytes + model_bytes))
            duration = self.cost_model.training_duration(plan.grade, plan.flow.total_work)
            update, payload = None, model_bytes
            if plan.numeric:
                rng = self.streams.get(f"phone-exec.{assignment.device_id}")
                update = execute_flow(plan, assignment, round_index, global_weights, global_bias, rng)
                if update is not None:
                    payload = update.wire_size(update.weights.size)
            yield phone.start_training(duration, upload_bytes=payload)
            yield Timeout(payload / phone.spec.network_bandwidth_bps)
            collect(_outcome(assignment, plan, round_index, payload, update, self.sim.now))

    # -- one polling process per benchmarking phone, sampling through ADB text --
    def _register_sampled_phone(self, phone, record) -> _SampledPhone:
        entry = _SampledPhone(phone, record)
        entry.stopped = self.sim.process(self._sample_loop(entry), name=f"{phone.serial}.sampler")
        return entry

    def _sample_loop(self, entry: _SampledPhone) -> Generator:
        """Poll the five quoted ADB commands at the configured frequency."""
        while entry.active:
            self._record_sample(entry.phone, entry.record)
            yield Timeout(self.poll_interval)

    def _record_sample(self, phone, record) -> None:
        package = self.apk.package
        shell = partial(text_shell, self.adb)
        current_raw = shell(phone.serial, "cat /sys/class/power_supply/battery/current_now")
        voltage_raw = shell(phone.serial, "cat /sys/class/power_supply/battery/voltage_now")
        pid = parse_pgrep_pid(shell(phone.serial, f"pgrep -f {package}")) or 0
        top_raw = dumpsys_raw = net_raw = ""
        if pid:
            top_raw = shell(phone.serial, f"top -b -n 1 -p {pid}")
            dumpsys_raw = shell(phone.serial, f"dumpsys meminfo {package} | grep PSS")
            net_raw = shell(phone.serial, f"cat /proc/{pid}/net/dev | grep wlan")
        sample = parse_metric_sample(
            timestamp=self.sim.now,
            serial=phone.serial,
            current_raw=current_raw,
            voltage_raw=voltage_raw,
            top_raw=top_raw,
            pid=pid,
            dumpsys_raw=dumpsys_raw,
            net_dev_raw=net_raw,
        )
        record.samples.append(sample)
