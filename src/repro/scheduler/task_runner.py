"""The Task Runner: end-to-end execution of one scheduled task.

§III-B: "Task Runner dynamically adjusts execution strategies for
scheduled tasks, ensuring that they are allocated to appropriate
heterogeneous resources based on the requested resource amounts and the
number of simulated devices."  Concretely, the runner

1. generates (or receives) the task's federated dataset,
2. solves the §IV-B hybrid allocation problem,
3. builds the logical-tier and physical-tier execution plans,
4. registers the task with DeviceFlow (when traffic shaping is on),
5. drives the configured number of rounds — tiers in parallel, result
   blocks through the transport channel and DeviceFlow when armed,
   aggregation on the cloud — and
6. tears everything down, returning a :class:`TaskResult`, which also
   carries the benchmarking phones' records: PhoneMgr's upload of its
   measurements to the cloud (§IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Generator
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.aggregation import AggregationRecord, AggregationService, AggregationTrigger
from repro.cloud.monitor import Monitor
from repro.cloud.sink import CloudIngestSink, OutcomeSink
from repro.cloud.transport import ChannelModel, TransportChannel, TransportCounters
from repro.cluster.cluster import K8sCluster
from repro.cluster.cost import LogicalCostModel
from repro.cluster.resources import ResourceBundle
from repro.cluster.rounds import DeviceColumns, IdColumn, IdTable
from repro.cluster.runner import GradeExecutionPlan, LogicalSimulation
from repro.data.avazu import FederatedDataset, make_federated_ctr_data
from repro.deviceflow.controller import DeviceFlow
from repro.deviceflow.messages import Segment
from repro.ml.backends import SERVER_BACKEND
from repro.ml.model import LogisticRegressionModel
from repro.phones.adb import SimulatedAdb
from repro.phones.cost import PhysicalCostModel
from repro.phones.phone import VirtualPhone
from repro.phones.phonemgr import BenchmarkRecord, PhoneAssignment, PhoneMgr
from repro.scheduler.allocation import (
    AllocationProblem,
    AllocationResult,
    GradeAllocationParams,
    evaluate_allocation,
    solve_allocation,
)
from repro.scheduler.task import TaskSpec, TaskState
from repro.simkernel import AllOf, RandomStreams, RecurringTimeout, Signal, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.tracing import Tracer


@dataclass
class TaskResult:
    """Everything a finished task reports back."""

    task_id: str
    state: TaskState
    allocation: AllocationResult | None
    started_at: float
    finished_at: float
    rounds: list[AggregationRecord] = field(default_factory=list)
    flow_stats: object | None = None
    #: The benchmarking phones' per-round records (samples and Table-I
    #: stage boundaries) — PhoneMgr's upload to the cloud (§IV-C); a
    #: failed task carries the records it measured before it failed.
    benchmark_records: list[BenchmarkRecord] = field(default_factory=list)
    #: Transport totals (uploads/retries/duplicate_drops/late_drops/...)
    #: when a lossy channel or round deadline was armed, else ``None``.
    transport: dict | None = None
    error: str | None = None

    @property
    def makespan(self) -> float:
        """Simulated seconds from start to completion."""
        return self.finished_at - self.started_at


class _TracedHandoff:
    """A traced task's cloud side as its tiers see it: where a device round enters the trace, once."""

    def __init__(self, inner: OutcomeSink, tracer: Tracer) -> None:
        self.inner, self.tracer, self.prefers_waves = inner, tracer, inner.prefers_waves

    def accept_block(self, block: Segment) -> None:
        self.tracer.record_block(block)
        self.inner.accept_block(block)


class TaskRunner:
    """Executes one task against the shared platform substrates.

    Parameters
    ----------
    sim / streams:
        Simulation plumbing.
    spec:
        The task to run.
    cluster / logical_cost:
        Logical tier.
    phones / adb / physical_cost / busy_registry / poll_interval:
        Physical tier (the busy registry is shared across runners;
        ``poll_interval`` is the benchmarking-phone sampling period).
    monitor:
        The platform's event log.
    deviceflow:
        Shared traffic controller (used when the spec carries a strategy).
    unit_bundle:
        The indivisible logical allocation unit.
    fixed_allocation / dataset:
        Optional explicit per-grade logical counts overriding the
        optimizer, and an optional pre-built federated dataset replacing
        the spec-derived one.
    channel / channel_scope:
        Optional device→cloud :class:`~repro.cloud.transport.ChannelModel`
        fronting the ingestion sink, and the tenant scope its windows
        match against.  A channel with no applicable impairment is
        skipped entirely — lossless runs stay byte-identical to channel-
        free ones.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: TaskSpec,
        cluster: K8sCluster,
        phones: list[VirtualPhone],
        adb: SimulatedAdb,
        deviceflow: DeviceFlow,
        logical_cost: LogicalCostModel,
        physical_cost: PhysicalCostModel,
        streams: RandomStreams,
        busy_registry: set,
        monitor: Monitor,
        unit_bundle: ResourceBundle,
        poll_interval: float,
        fixed_allocation: dict[str, int] | None = None,
        dataset: FederatedDataset | None = None,
        channel: ChannelModel | None = None,
        channel_scope: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.deviceflow = deviceflow
        self.logical_cost = logical_cost
        self.physical_cost = physical_cost
        self.streams = streams
        self.monitor = monitor
        self.fixed_allocation = fixed_allocation
        self.unit_bundle = unit_bundle
        self._provided_dataset = dataset
        self.channel = channel
        self.channel_scope = channel_scope
        self.tracer = tracer
        self._sink: CloudIngestSink | None = None
        self._channel: TransportChannel | None = None
        self._handoff: OutcomeSink | None = None
        self._open_round: int | None = None
        self._flow_registered = False
        self._drain_tick: RecurringTimeout | None = None
        self.logical = LogicalSimulation(sim, cluster, self.logical_cost, self.streams)
        self.phonemgr = PhoneMgr(
            sim,
            adb,
            phones,
            cost_model=self.physical_cost,
            streams=self.streams,
            busy_registry=busy_registry,
            poll_interval=poll_interval,
        )
        self.service: AggregationService | None = None
        self.result: TaskResult | None = None

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """The task's top-level process; returns a :class:`TaskResult`."""
        spec = self.spec
        spec.state = TaskState.RUNNING
        started = self.sim.now
        self.monitor.log("task_started", task_id=spec.task_id)
        try:
            dataset = self._build_dataset()
            allocation = self._solve_allocation()
            logical_plans, phone_plans = self._build_plans(dataset, allocation)
            self.service = self._build_service(dataset)
            uses_flow = spec.deviceflow_strategy is not None
            channel_active = self.channel is not None and self.channel.active_for(
                self.channel_scope
            )
            gated = channel_active or spec.deadline_s is not None
            # Direct tasks hand each plan's round to the cloud as one
            # columnar block; flow tasks hand over one block per
            # completion wave (strategies sample arrivals mid-round).
            self._sink = CloudIngestSink(
                self.sim,
                self.service,
                deviceflow=self.deviceflow if uses_flow else None,
                dedup=channel_active,
                tracer=self.tracer,
            )
            if channel_active:
                self._channel = TransportChannel(
                    self.sim,
                    self.channel,
                    self._sink,
                    self.streams,
                    scope=self.channel_scope,
                    tracer=self.tracer,
                )
                # Seeding a stream costs a batch, not a row: announce each
                # plan's id column now instead of 29 ids a wave.
                for plan in (*logical_plans, *phone_plans):
                    self._channel.seed(spec.task_id, plan.devices.device_ids)
            # What the tiers deliver to: the channel when one is armed, else the sink.
            self._handoff = self._channel if self._channel is not None else self._sink
            if self.tracer is not None:
                self._handoff = _TracedHandoff(self._handoff, self.tracer)
            if uses_flow:
                self.deviceflow.register_task(
                    spec.task_id, spec.deviceflow_strategy, self._sink.flow_receive
                )
                self._flow_registered = True
            prepares = [
                self.sim.process(tier.prepare(plans, task_id=spec.task_id))
                for tier, plans in ((self.logical, logical_plans), (self.phonemgr, phone_plans))
                if plans
            ]
            if prepares:
                yield AllOf(prepares)

            model_bytes = LogisticRegressionModel(spec.feature_dim, SERVER_BACKEND).payload_size()
            for round_index in range(1, spec.rounds + 1):
                yield self.sim.process(
                    self._run_round(round_index, model_bytes, uses_flow),
                    name=f"{spec.task_id}.round{round_index}",
                )
            flow_stats = self.deviceflow.stats(spec.task_id) if uses_flow else None
            self._teardown(uses_flow)
            yield self.sim.process(self.phonemgr.teardown())
            spec.state = TaskState.COMPLETED
            self.result = TaskResult(
                task_id=spec.task_id,
                state=spec.state,
                allocation=allocation,
                started_at=started,
                finished_at=self.sim.now,
                rounds=list(self.service.history),
                flow_stats=flow_stats,
                benchmark_records=list(self.phonemgr.benchmark_records),
                transport=self._transport_summary() if gated else None,
            )
        except Exception as exc:
            spec.state = TaskState.FAILED
            self._emergency_cleanup()
            self.result = TaskResult(
                task_id=spec.task_id,
                state=spec.state,
                allocation=None,
                started_at=started,
                finished_at=self.sim.now,
                benchmark_records=list(self.phonemgr.benchmark_records),
                error=repr(exc),
            )
            self.monitor.log("task_failed", task_id=spec.task_id, error=repr(exc))
            raise
        self.monitor.log("task_completed", task_id=spec.task_id, makespan=self.result.makespan)
        return self.result

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_dataset(self) -> FederatedDataset | None:
        if not self.spec.numeric:
            return None
        if self._provided_dataset is not None:
            return self._provided_dataset
        return make_federated_ctr_data(
            n_devices=self.spec.total_devices,
            records_per_device=self.spec.records_per_device,
            feature_dim=self.spec.feature_dim,
            seed=self.spec.dataset_seed,
            skew=self.spec.skew,
        )

    def _solve_allocation(self) -> AllocationResult:
        params = []
        flow_work = self.spec.flow.total_work
        for grade in self.spec.grades:
            params.append(
                GradeAllocationParams(
                    grade=grade.grade,
                    n_devices=grade.n_devices,
                    n_benchmark=grade.n_benchmark,
                    bundles=grade.bundles,
                    units_per_device=grade.device_bundle.units_relative_to(self.unit_bundle),
                    n_phones=grade.n_phones,
                    alpha=self.logical_cost.device_round_duration(grade.grade, flow_work),
                    beta=self.physical_cost.training_duration(grade.grade, flow_work),
                    lam=self.physical_cost.startup_duration(grade.grade),
                )
            )
        problem = AllocationProblem(params)
        if self.fixed_allocation is not None:
            x = [self.fixed_allocation[g.grade] for g in params]
            result = evaluate_allocation(problem, x)
            result.solver = "fixed"
            return result
        return solve_allocation(problem)

    def _build_plans(
        self, dataset: FederatedDataset | None, allocation: AllocationResult
    ) -> tuple[list[GradeExecutionPlan], list[PhoneAssignment]]:
        """Split each grade's device ids across tiers per the allocation: rows of one id table per dataset or grade."""
        shards = None if dataset is None else DeviceColumns.of_shards([dataset.shard(d) for d in dataset.device_ids()])
        cursor = 0
        logical_plans: list[GradeExecutionPlan] = []
        phone_plans: list[PhoneAssignment] = []
        for grade_req, grade_alloc in zip(self.spec.grades, allocation.grades):
            n = grade_req.n_devices
            if shards is not None:
                devices = shards[cursor : cursor + n]
                cursor += n
            else:
                ids = IdColumn(IdTable(f"{self.spec.task_id}-{grade_req.grade}-", n), range(n))
                devices = DeviceColumns(ids, np.full(n, self.spec.records_per_device, dtype=np.int64))
            # Rows in order: the benchmarking devices, the logical share, the phones' share.
            n_bench = grade_req.n_benchmark
            split = n_bench + grade_alloc.logical
            benchmarking, logical, physical = devices[:n_bench], devices[n_bench:split], devices[split:]
            shared = {
                "grade": grade_req.grade,
                "flow": self.spec.flow,
                "feature_dim": self.spec.feature_dim,
                "numeric": self.spec.numeric,
            }
            if len(logical):
                k = grade_req.device_bundle.units_relative_to(self.unit_bundle)
                logical_plans.append(
                    GradeExecutionPlan(
                        devices=logical,
                        n_actors=max(1, grade_req.bundles // k),
                        bundle=grade_req.device_bundle,
                        **shared,
                    )
                )
            if len(physical) or len(benchmarking):
                phone_plans.append(
                    PhoneAssignment(
                        devices=physical,
                        benchmarking=benchmarking,
                        n_phones=grade_req.n_phones if len(physical) else 0,
                        **shared,
                    )
                )
        return logical_plans, phone_plans

    def _build_service(self, dataset: FederatedDataset | None) -> AggregationService:
        model = LogisticRegressionModel(self.spec.feature_dim, SERVER_BACKEND) if self.spec.numeric else None
        test_set = dataset.test if dataset is not None else None
        return AggregationService(
            self.sim,
            trigger=AggregationTrigger(),  # runner-driven round-end aggregation
            model=model,
            test_set=test_set,
        )

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def _run_round(self, round_index: int, model_bytes: int, uses_flow: bool) -> Generator:
        spec = self.spec
        assert self.service is not None and self._sink is not None
        if self.tracer is not None:
            self.tracer.record_round_start(spec.task_id, round_index, self.sim.now)
        if uses_flow:
            self.deviceflow.round_started(spec.task_id, round_index)
        model = self.service.model
        weights, bias = (model.get_params() if model is not None else (None, 0.0))

        # Arm the round's transport gates.  The channel drops late
        # uploads at their computed arrival times for direct tasks; flow
        # tasks are gated at dispatcher delivery (the sink checks
        # ``sim.now``), and their shelves are force-drained at the
        # deadline so the round cannot hang on undispatched messages.
        round_deadline = (
            self.sim.now + spec.deadline_s if spec.deadline_s is not None else None
        )
        self._open_round = round_index
        if self._channel is not None:
            self._channel.begin_round(
                round_index, deadline=None if uses_flow else round_deadline
            )
        self._sink.begin_round(
            round_index,
            deadline=round_deadline if (uses_flow or self._channel is None) else None,
        )
        gate_before = (self._sink.delivered, self._sink.duplicate_drops, self._sink.late_drops)
        if uses_flow and round_deadline is not None:
            self.sim.schedule_at(round_deadline, self._close_flow_round, round_index)

        tier_processes = [
            self.sim.process(tier.run_round(round_index, weights, bias, model_bytes, self._handoff))
            for tier in (self.logical, self.phonemgr)
            if tier.plans
        ]
        if tier_processes:
            yield AllOf(tier_processes)
        counters: TransportCounters | None = None
        if self._channel is not None:
            counters = yield from self._channel.finish_round()
        if uses_flow:
            self.deviceflow.round_completed(spec.task_id, round_index)
            yield self._await_deliveries()
        if counters is not None:
            self.monitor.log(
                "transport_round",
                task_id=spec.task_id,
                round=round_index,
                uploads=counters.uploads,
                delivered=self._sink.delivered - gate_before[0],
                retries=counters.retries,
                duplicates=self._sink.duplicate_drops - gate_before[1],
                late=counters.late_drops + self._sink.late_drops - gate_before[2],
                abandoned=counters.abandoned,
                expected=spec.total_devices,
            )
        self._open_round = None
        if self.service.pending_updates > 0:
            record = self.service.aggregate_now()
            self.monitor.log(
                "round_aggregated",
                task_id=spec.task_id,
                round=round_index,
                n_updates=record.n_updates,
                n_devices=spec.total_devices,
                test_accuracy=record.test_accuracy,
            )
        if self.tracer is not None:
            self.tracer.record_round_end(spec.task_id, round_index, self.sim.now)

    def _await_deliveries(self) -> Signal:
        """A signal that fires once DeviceFlow has delivered or dropped everything.

        A 1-s tick from now on (:meth:`_poll_drain`), at the instants and
        same-time places of the polling process it replaced.  ``received``
        is frozen once the round's computation is done, so the drain
        condition is monotone and the tick stops for any bounded strategy
        schedule.
        """
        drained = Signal(name=f"{self.spec.task_id}.drain")
        self._drain_tick = self.sim.schedule_recurring(1.0, self._poll_drain, drained, first_at=self.sim.now)
        return drained

    def _poll_drain(self, drained: Signal) -> None:
        """One drain poll; an error fails ``drained``, so it reaches the round."""
        try:
            if not self.deviceflow.drained(self.spec.task_id):
                return
        except Exception as exc:
            drained.fail(exc)
        else:
            drained.fire()
        self._drain_tick.cancel()
        self._drain_tick = None

    def _close_flow_round(self, round_index: int) -> None:
        """Deadline closure for flow rounds: drop undispatched messages.

        Scheduled at the round's absolute deadline; a no-op when the
        round already finished (the guard also covers crashed tasks).
        Already-dispatched late messages are dropped by the sink's gate
        at delivery time.
        """
        if not self._flow_registered or self._open_round != round_index:
            return
        dropped = self.deviceflow.discard_shelved(self.spec.task_id)
        if dropped > 0:
            self.monitor.log(
                "round_deadline_closed",
                task_id=self.spec.task_id,
                round=round_index,
                dropped=dropped,
            )

    def _transport_summary(self) -> dict:
        """Task-level transport totals (channel + ingestion gate)."""
        totals = self._channel.totals if self._channel is not None else TransportCounters()
        summary = totals.as_dict()
        summary["delivered"] = self._sink.delivered
        summary["duplicate_drops"] = self._sink.duplicate_drops
        summary["late_drops"] = totals.late_drops + self._sink.late_drops
        return summary

    def _teardown(self, uses_flow: bool) -> None:
        self.logical.teardown()
        if uses_flow:
            self.deviceflow.unregister_task(self.spec.task_id)
            self._flow_registered = False

    def _emergency_cleanup(self) -> None:
        """Best-effort release of every concrete resource after a crash.

        The Task Manager releases the bookkeeping grant; this method
        returns the *physical* allocations — cluster placement group,
        phone reservations, DeviceFlow registration — so sibling and
        queued tasks are unaffected.
        """
        self.logical.teardown()
        self.phonemgr.abort()
        if self._flow_registered:
            self.deviceflow.force_unregister(self.spec.task_id)
            self._flow_registered = False
