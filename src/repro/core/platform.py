"""The SimDC platform: one object wiring every substrate together.

Typical usage::

    from repro import SimDC, TaskSpec, GradeRequirement

    platform = SimDC()
    spec = TaskSpec(
        name="quickstart",
        grades=[GradeRequirement(grade="High", n_devices=20, bundles=40,
                                 n_phones=2, device_cpus=4, device_memory_gb=12)],
        rounds=3,
    )
    platform.submit(spec)
    platform.run_until_idle()
    result = platform.result(spec.task_id)
"""

from __future__ import annotations

from typing import Any

from repro.cloud.monitor import Monitor
from repro.cluster.cluster import K8sCluster
from repro.cluster.cost import LogicalCostModel
from repro.core.config import PlatformConfig
from repro.data.avazu import FederatedDataset
from repro.deviceflow.controller import DeviceFlow
from repro.phones.adb import SimulatedAdb
from repro.phones.cost import PhysicalCostModel
from repro.phones.msp import MobileServicePlatform
from repro.phones.phone import VirtualPhone
from repro.scheduler.resource_manager import ResourceManager
from repro.scheduler.task import TaskSpec
from repro.scheduler.task_manager import TaskManager
from repro.scheduler.task_runner import TaskResult, TaskRunner
from repro.simkernel import RandomStreams, Simulator


class SimDC:
    """A fully wired SimDC deployment over the discrete-event kernel.

    Construction stands up the logical cluster, the local + MSP phone
    fleet behind a simulated ADB, DeviceFlow, the resource manager and
    the task manager.  Tasks are submitted as
    :class:`~repro.scheduler.task.TaskSpec` objects and the whole
    deployment advances by running the simulator.
    """

    def __init__(self, config: PlatformConfig | None = None) -> None:
        self.config = config or PlatformConfig()
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)
        self.monitor = Monitor(self.sim)
        self.cluster = K8sCluster(self.config.cluster_nodes)
        self.adb = SimulatedAdb()
        self.phones: list[VirtualPhone] = []
        for index, spec in enumerate(self.config.local_fleet):
            phone = VirtualPhone(self.sim, f"local-{index:03d}", spec, streams=self.streams)
            self.adb.register(phone)
            self.phones.append(phone)
        self.msp = MobileServicePlatform(
            self.sim,
            self.adb,
            self.config.msp_fleet,
            streams=self.streams,
            availability=self.config.msp_availability,
        )
        self.phones.extend(self.msp.provision())
        self.deviceflow = DeviceFlow(
            self.sim,
            streams=self.streams,
            capacity_per_second=self.config.deviceflow_capacity,
            tracer=self.config.tracer,
        )
        self.resource_manager = ResourceManager(
            self.cluster, self.phones, unit_bundle=self.config.unit_bundle
        )
        self._busy_registry: set[str] = set()
        self._runner_options: dict[str, dict[str, Any]] = {}
        self._submitted: dict[str, TaskSpec] = {}
        self.task_manager = TaskManager(
            self.sim,
            self.resource_manager,
            runner_factory=self._make_runner,
            monitor=self.monitor,
        )

    # ------------------------------------------------------------------
    # task API
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: TaskSpec,
        fixed_allocation: dict[str, int] | None = None,
        dataset: FederatedDataset | None = None,
        at: float | None = None,
        logical_cost: LogicalCostModel | None = None,
        physical_cost: PhysicalCostModel | None = None,
        channel_scope: str = "",
    ) -> TaskSpec:
        """Queue a task; optional overrides for arrival, allocation and data.

        ``fixed_allocation`` maps grade name to the logical-tier device
        count, bypassing the optimizer; ``dataset`` supplies a pre-built
        federated dataset instead of the spec-derived synthetic one.  ``at``
        defers the submission to an absolute simulated time (the scenario engine
        schedules whole task streams this way); ``logical_cost`` /
        ``physical_cost`` replace the platform-wide cost models for this
        task only (straggler injection slows a tenant down with scaled
        copies).  ``channel_scope`` is the tenant name the configured
        transport channel's per-tenant windows match against.

        Raises ``ValueError`` for a grade the task's cost models hold no
        constants for, for a ``fixed_allocation`` that does not give each
        of the task's grades a count the grade can host, and for a
        ``task_id`` the platform has been handed before, whatever state
        that task is in (``PENDING``: deferred by ``at=``) — its result
        and random streams are keyed by that id.
        """
        logical_cost = logical_cost or self.config.logical_cost
        physical_cost = physical_cost or self.config.physical_cost
        self._check_submission(spec, logical_cost, physical_cost, fixed_allocation)
        seen = self._submitted.get(spec.task_id)
        if seen is not None:
            raise ValueError(
                f"task_id {spec.task_id!r} of task {spec.name!r} is taken: "
                f"task {seen.name!r} was submitted with it and is {seen.state.value}"
            )
        self._submitted[spec.task_id] = spec
        self._runner_options[spec.task_id] = {
            "fixed_allocation": dict(fixed_allocation) if fixed_allocation is not None else None,
            "dataset": dataset,
            "logical_cost": logical_cost,
            "physical_cost": physical_cost,
            "channel_scope": channel_scope,
        }
        if at is not None:
            return self.task_manager.submit_at(spec, at)
        return self.task_manager.submit(spec)

    @staticmethod
    def _check_submission(
        spec: TaskSpec, logical: LogicalCostModel, physical: PhysicalCostModel, fixed_allocation: dict[str, int] | None
    ) -> None:
        known = sorted(set(logical.alpha) & set(physical.beta) & set(physical.framework_startup))
        for requirement in spec.grades:
            if requirement.grade not in known:
                raise ValueError(
                    f"grade {requirement.grade!r} of task {spec.name!r} has no calibrated cost constants "
                    f"(alpha, beta and lambda); known grades: {known}"
                )
        if fixed_allocation is None:
            return
        grades = [requirement.grade for requirement in spec.grades]
        if sorted(fixed_allocation) != sorted(grades):
            raise ValueError(
                f"fixed_allocation of task {spec.name!r} names grades {sorted(fixed_allocation)}; "
                f"the task's grades are {grades}"
            )
        for requirement in spec.grades:
            logical_count = fixed_allocation[requirement.grade]
            computable = requirement.n_devices - requirement.n_benchmark
            if not 0 <= logical_count <= computable:
                raise ValueError(
                    f"fixed_allocation[{requirement.grade!r}]={logical_count!r} of task {spec.name!r} "
                    f"is outside [0, {computable}] (known grades: {grades})"
                )

    def run(self) -> float:
        """Run until the event queue drains (see :meth:`Simulator.run`)."""
        return self.sim.run()

    def run_until_idle(self, max_time: float | None = None) -> float:
        """Run until every submitted task reaches a terminal state."""
        manager = self.task_manager  # all_idle is a flag the manager flips: a batch boundary reads one attribute
        return self.sim.run_until(lambda: manager.all_idle, max_time=max_time)

    def result(self, task_id: str) -> TaskResult:
        """Result of a completed task."""
        return self.task_manager.result_of(task_id)

    @property
    def results(self) -> dict[str, TaskResult]:
        """All finished task results keyed by task id."""
        return dict(self.task_manager.results)

    def _make_runner(self, spec: TaskSpec) -> TaskRunner:
        return TaskRunner(
            sim=self.sim,
            spec=spec,
            cluster=self.cluster,
            phones=self.phones,
            adb=self.adb,
            deviceflow=self.deviceflow,
            streams=self.streams,
            busy_registry=self._busy_registry,
            monitor=self.monitor,
            unit_bundle=self.config.unit_bundle,
            poll_interval=self.config.poll_interval,
            channel=self.config.channel,
            tracer=self.config.tracer,
            **self._runner_options.pop(spec.task_id),
        )
