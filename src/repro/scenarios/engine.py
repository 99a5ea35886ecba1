"""The scenario engine: replaying a declarative spec on a live platform.

:class:`ScenarioRunner` stands up one :class:`~repro.core.platform.SimDC`
deployment per run, schedules every tenant submission *as a simulator
event* (``SimDC.submit(..., at=...)`` rides the Task Manager's deferred
path), arms the fault plan as kernel events, and drives the whole thing to
idle.  Nothing here executes outside the simulated clock, so a scenario is
exactly as deterministic as the platform itself: same spec + same seed ⇒
byte-identical :class:`~repro.scenarios.kpis.ScenarioReport`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.cloud.transport import ChannelModel, ChannelWindow
from repro.cluster.cost import LogicalCostModel
from repro.cluster.resources import NodeSpec
from repro.core.config import PlatformConfig
from repro.core.platform import SimDC
from repro.observability import AlarmEngine, AutoscalePolicy, attach_live_slas
from repro.observability.tracing import Trace, Tracer, assemble_trace
from repro.phones.cost import PhysicalCostModel
from repro.phones.specs import DEFAULT_LOCAL_FLEET, build_fleet
from repro.scenarios.kpis import ScenarioReport, build_report
from repro.scenarios.spec import FaultSpec, ScenarioSpec, TransportSpec

#: FaultSpec transport kinds → ChannelWindow kinds.
_WINDOW_KIND = {
    "message_loss": "loss",
    "message_duplication": "duplication",
    "service_outage": "outage",
}


class FaultInjector:
    """Applies a scenario's fault plan to a live platform via the kernel.

    Every fault (and its recovery) is a scheduled simulator event, so
    faults interleave deterministically with submissions, rounds and
    samplers.  Each firing is logged on the platform monitor as a
    ``fault_*`` event for the report.
    """

    def __init__(self, platform: SimDC) -> None:
        self.platform = platform
        self._down: set[str] = set()
        self._active_degradations: list[FaultSpec] = []

    def arm(self, faults: list[FaultSpec]) -> None:
        """Schedule every fault event on the platform's clock."""
        sim = self.platform.sim
        for fault in faults:
            if fault.kind == "phone_crash":
                state: dict[str, Any] = {}
                sim.schedule_at(fault.at, self._crash_phones, fault, state)
                if fault.until is not None:
                    sim.schedule_at(fault.until, self._recover_phones, fault, state)
            elif fault.kind == "network_degradation":
                sim.schedule_at(fault.at, self._degrade_network, fault)
                assert fault.until is not None
                sim.schedule_at(fault.until, self._restore_network, fault)
            # Straggler windows act at submission time (the engine scales
            # the affected tasks' cost models); log the window open so the
            # report counts it even when no submission lands inside.
            elif fault.kind == "straggler":
                sim.schedule_at(fault.at, self._log_straggler_window, fault)
            # Transport windows are baked into the channel model at
            # build time (probabilities must be known before the first
            # upload is planned); log the window opening for the report.
            elif fault.kind in FaultSpec.TRANSPORT_KINDS:
                sim.schedule_at(fault.at, self._log_transport_window, fault)

    # ------------------------------------------------------------------
    def _crash_phones(self, fault: FaultSpec, state: dict) -> None:
        platform = self.platform
        candidates = [
            phone
            for phone in sorted(platform.phones, key=lambda p: (p.is_msp, p.serial))
            if phone.spec.grade == fault.grade
            and phone.serial not in platform._busy_registry
            and phone.serial not in self._down
        ]
        # Churn takes idle handsets; remote (MSP) phones drop first — the
        # flakier pool in the paper's deployment model.
        victims = candidates[-fault.count :] if candidates else []
        state["victims"] = victims
        platform.resource_manager.remove_phones(victims)
        for phone in victims:
            platform._busy_registry.add(phone.serial)
            self._down.add(phone.serial)
            platform.monitor.log(
                "fault_phone_crash", serial=phone.serial, grade=fault.grade
            )

    def _recover_phones(self, fault: FaultSpec, state: dict) -> None:
        platform = self.platform
        for phone in state.get("victims", []):
            platform._busy_registry.discard(phone.serial)
            platform.resource_manager.add_phones([phone])
            self._down.discard(phone.serial)
            platform.monitor.log(
                "fault_phone_recover", serial=phone.serial, grade=fault.grade
            )
        # A freed phone may unblock a queued, phone-starved task now.
        platform.task_manager.notify_resources_changed()

    def _apply_degradations(self) -> float:
        """Effective capacity scale: active windows stack multiplicatively."""
        scale = 1.0
        for fault in self._active_degradations:
            scale *= fault.factor
        self.platform.deviceflow.set_capacity_scale(scale)
        return scale

    def _degrade_network(self, fault: FaultSpec) -> None:
        self._active_degradations.append(fault)
        scale = self._apply_degradations()
        self.platform.monitor.log("fault_network_degraded", factor=fault.factor, scale=scale)

    def _restore_network(self, fault: FaultSpec) -> None:
        # Remove by identity, not equality: two degradation windows with
        # identical fields are distinct scheduled faults, and ``remove``'s
        # ``==`` scan would pop the *first* window when the second expires
        # (restoring capacity early) and then raise when the first ends.
        for i, active in enumerate(self._active_degradations):
            if active is fault:
                del self._active_degradations[i]
                break
        scale = self._apply_degradations()
        self.platform.monitor.log("fault_network_restored", factor=fault.factor, scale=scale)

    def _log_straggler_window(self, fault: FaultSpec) -> None:
        self.platform.monitor.log(
            "fault_straggler_window",
            tenant=fault.tenant or "*",
            factor=fault.factor,
            until=fault.until,
        )

    def _log_transport_window(self, fault: FaultSpec) -> None:
        self.platform.monitor.log(
            f"fault_{fault.kind}",
            tenant=fault.tenant or "*",
            factor=fault.factor,
            until=fault.until,
        )


class ScenarioRunner:
    """Builds the platform for a spec and replays the scenario on it.

    Parameters
    ----------
    spec:
        The declarative scenario.
    tracer:
        Optional :class:`~repro.observability.tracing.Tracer` armed on
        the platform; after :meth:`run`, :meth:`trace` assembles the
        run's span tree.  ``None`` (default) keeps every instrumentation
        point compiled down to a skipped ``if``.
    """

    def __init__(self, spec: ScenarioSpec, tracer: Tracer | None = None) -> None:
        self.spec = spec
        self.tracer = tracer
        self.platform = self._build_platform()
        self.faults = FaultInjector(self.platform)
        #: tenant name -> [(task_id, submit_time)] ledger for the report.
        self.submissions: dict[str, list[tuple[str, float]]] = {}
        self._tenant_names = {tenant.name for tenant in spec.tenants}
        # The live observability loop: alarms watch the monitor stream,
        # SLAs piggyback as pure-threshold watches, and the autoscaler
        # (when configured) turns alarm transitions into scaling actions.
        self.alarms = AlarmEngine(
            self.platform.monitor, rules=spec.alarms, scope_of=self._tenant_of_task
        )
        attach_live_slas(self.alarms, spec.all_slas())
        self.autoscaler: AutoscalePolicy | None = None
        if spec.autoscale is not None:
            self.autoscaler = AutoscalePolicy(
                spec.autoscale,
                self.platform.monitor,
                self.platform.resource_manager,
                self.platform.task_manager,
            )

    def _tenant_of_task(self, task_id: str) -> str:
        """Map a scenario task id back to its tenant (alarm scoping)."""
        prefix = self.spec.name + "."
        if not task_id.startswith(prefix):
            return ""
        tenant = task_id[len(prefix):].rsplit(".", 1)[0]
        return tenant if tenant in self._tenant_names else ""

    # ------------------------------------------------------------------
    def _build_channel(self) -> ChannelModel | None:
        """The device→cloud channel: transport spec + fault-plan windows.

        ``None`` when the scenario declares no transport behaviour at
        all — the platform then skips the channel layer entirely and
        stays byte-identical to pre-transport runs.  Transport fault
        kinds without an explicit :class:`TransportSpec` imply a default
        (otherwise lossless) channel carrying just those windows.
        """
        spec = self.spec
        windows = [
            ChannelWindow(
                kind=_WINDOW_KIND[fault.kind],
                at=fault.at,
                until=fault.until,
                prob=fault.factor if fault.kind != "service_outage" else 1.0,
                tenant=fault.tenant,
            )
            for fault in spec.faults
            if fault.kind in FaultSpec.TRANSPORT_KINDS
        ]
        if spec.transport is None and not windows:
            return None
        transport = spec.transport or TransportSpec()
        return ChannelModel(
            latency_s=transport.latency_s,
            jitter_s=transport.jitter_s,
            loss_prob=transport.loss_prob,
            dup_prob=transport.dup_prob,
            retry_base_s=transport.retry_base_s,
            retry_cap_s=transport.retry_cap_s,
            max_attempts=transport.max_attempts,
            windows=windows,
        )

    def _build_platform(self) -> SimDC:
        spec = self.spec
        local_fleet = tuple(DEFAULT_LOCAL_FLEET) + tuple(
            build_fleet(spec.extra_high_phones, spec.extra_low_phones, prefix="SCN")
        )
        config = PlatformConfig(
            seed=spec.seed,
            cluster_nodes=[NodeSpec(cpus=20, memory_gb=30)] * spec.cluster_nodes,
            local_fleet=local_fleet,
            deviceflow_capacity=spec.deviceflow_capacity,
            channel=self._build_channel(),
            tracer=self.tracer,
        )
        return SimDC(config)

    def _straggler_factor(self, tenant: str, submit_time: float) -> float:
        """Combined slowdown for a submission (overlapping windows stack)."""
        factor = 1.0
        for fault in self.spec.faults:
            if fault.covers_submission(tenant, submit_time):
                factor *= fault.factor
        return factor

    def _slowed_costs(self, factor: float) -> tuple[LogicalCostModel, PhysicalCostModel]:
        """Cost models with per-device durations scaled by ``factor``."""
        logical = self.platform.config.logical_cost
        physical = self.platform.config.physical_cost
        assert logical is not None and physical is not None
        return (
            replace(logical, alpha={g: a * factor for g, a in logical.alpha.items()}),
            replace(physical, beta={g: b * factor for g, b in physical.beta.items()}),
        )

    # ------------------------------------------------------------------
    def schedule(self) -> int:
        """Arm every submission and fault event; returns the task count.

        Idempotence guard: a runner replays its spec exactly once.
        """
        if self.submissions:
            raise RuntimeError("scenario already scheduled")
        spec = self.spec
        default_deadline = spec.transport.deadline_s if spec.transport is not None else None
        n_tasks = 0
        for position, tenant in enumerate(spec.tenants):
            ledger: list[tuple[str, float]] = []
            arrival_rng = self.platform.streams.get(f"scenario.arrival.{tenant.name}")
            times = tenant.arrival.submission_times(arrival_rng)
            for index, submit_time in enumerate(times):
                task = tenant.build_task(spec.name, index, spec.seed, spec.population)
                if task.deadline_s is None and default_deadline is not None:
                    task.deadline_s = default_deadline
                slowdown = self._straggler_factor(tenant.name, submit_time)
                options: dict[str, Any] = {"channel_scope": tenant.name}
                if slowdown > 1.0:
                    logical, physical = self._slowed_costs(slowdown)
                    options["logical_cost"] = logical
                    options["physical_cost"] = physical
                try:
                    self.platform.submit(task, at=submit_time, **options)
                except ValueError as exc:
                    # An error that opens with a grade gets that grade's path in the scenario file.
                    for row, grade in enumerate(tenant.grades):
                        if str(exc).startswith(f"grade {grade.grade!r} "):
                            raise ValueError(f"tenants[{position}].grades[{row}].{exc}") from None
                    raise
                ledger.append((task.task_id, submit_time))
                n_tasks += 1
            self.submissions[tenant.name] = ledger
        self.faults.arm(spec.faults)
        return n_tasks

    def run(self) -> ScenarioReport:
        """Replay the scenario to idle and distil the report."""
        self.schedule()
        finished_at = self.platform.run_until_idle(max_time=self.spec.max_time)
        # Flush trailing fault events (e.g. a recovery scheduled after the
        # last completion) so the platform ends in its healthy state.
        self.platform.run()
        return build_report(
            self.spec,
            self.platform,
            self.submissions,
            finished_at,
            alarms=self.alarms,
            autoscaler=self.autoscaler,
        )

    def trace(self) -> Trace:
        """Assemble the run's span tree (requires a tracer to be armed)."""
        if self.tracer is None:
            raise RuntimeError(
                "no tracer armed: construct the runner with "
                "ScenarioRunner(spec, tracer=Tracer())"
            )
        return assemble_trace(
            self.platform.monitor,
            self.tracer,
            name=self.spec.name,
            tenant_of=self._tenant_of_task,
        )


def run_scenario(spec: ScenarioSpec) -> ScenarioReport:
    """One-call convenience: build, replay, report."""
    return ScenarioRunner(spec).run()
