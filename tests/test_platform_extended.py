"""Extended platform integration: MSP, scaling, strategies, reporting."""

import pytest

from repro import (
    GradeRequirement,
    PlatformConfig,
    SimDC,
    TaskSpec,
    TaskState,
    TimeIntervalStrategy,
    TimePoint,
    TimePointStrategy,
)
from repro.cluster import LogicalCostModel, NodeSpec
from repro.cluster.cost import DEFAULT_ALPHA
from repro.deviceflow import right_tailed_normal
from repro.ml import standard_fl_flow
from repro.scenarios import SCENARIOS, ScenarioRunner, build_scenario
from repro.simkernel import Process


def two_grade_task(name="multi", rounds=1, strategy=None, skew=None):
    return TaskSpec(
        name=name,
        grades=[
            GradeRequirement(
                grade="High", n_devices=10, bundles=8, n_phones=2,
                device_cpus=2, device_memory_gb=2,
            ),
            GradeRequirement(
                grade="Low", n_devices=10, bundles=6, n_phones=2,
                device_cpus=1, device_memory_gb=2,
            ),
        ],
        rounds=rounds,
        flow=standard_fl_flow(epochs=1),
        deviceflow_strategy=strategy,
        feature_dim=128,
        records_per_device=8,
        skew=skew,
    )


class TestMspIntegration:
    def test_partial_msp_availability_shrinks_fleet(self):
        full = SimDC(PlatformConfig(seed=1, cluster_nodes=[NodeSpec(20, 30)]))
        partial = SimDC(
            PlatformConfig(seed=1, cluster_nodes=[NodeSpec(20, 30)], msp_availability=0.4)
        )
        assert len(partial.phones) < len(full.phones)
        assert len([p for p in partial.phones if not p.is_msp]) == 10  # locals unaffected

    def test_task_overflows_onto_msp_phones(self):
        platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2))
        spec = TaskSpec(
            name="msp-heavy",
            grades=[
                GradeRequirement(
                    grade="High", n_devices=12, bundles=4, n_phones=8,  # > 4 local High
                    device_cpus=2, device_memory_gb=2,
                )
            ],
            rounds=1,
            flow=standard_fl_flow(epochs=1),
            feature_dim=128,
            records_per_device=8,
        )
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        assert platform.result(spec.task_id).state is TaskState.COMPLETED


class TestDynamicScaling:
    def test_scale_up_unblocks_queued_task(self):
        platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(10, 10)]))
        spec = TaskSpec(
            name="needs-more",
            grades=[
                GradeRequirement(
                    grade="High", n_devices=4, bundles=30, n_phones=0,
                    device_cpus=1, device_memory_gb=1,
                )
            ],
            rounds=1,
            flow=standard_fl_flow(epochs=1),
            feature_dim=128,
            records_per_device=8,
        )
        platform.submit(spec)
        platform.sim.run(until=50.0)
        assert spec.state is TaskState.QUEUED  # 30 bundles > 10 available
        platform.resource_manager.scale_up(NodeSpec(cpus=20, memory_gb=30), count=2)
        platform.task_manager.notify_resources_changed()  # growth outside a task's lifecycle
        platform.run_until_idle(max_time=1e7)
        assert platform.result(spec.task_id).state is TaskState.COMPLETED

    def test_a_task_that_can_never_fit_fails_at_once(self):
        """Nothing polls the queue, so a stuck queue drains at t = 0 instead of spinning to ``max_time``."""
        platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(10, 10)]))
        platform.submit(
            TaskSpec(
                name="too-big", rounds=1, flow=standard_fl_flow(epochs=1), numeric=False,
                grades=[GradeRequirement(grade="High", n_devices=4, bundles=30, n_phones=0)],
            )
        )
        with pytest.raises(TimeoutError, match="event queue drained before predicate became true"):
            platform.run_until_idle(max_time=1e5)
        assert platform.sim.now == 0.0

    def test_scale_down_idle_nodes_after_completion(self):
        platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2))
        added = platform.resource_manager.scale_up(NodeSpec(10, 10), count=1)
        spec = two_grade_task()
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        platform.resource_manager.scale_down(added)
        assert platform.cluster.total_cpus == 40


class TestRuleBasedStrategiesThroughPlatform:
    def test_time_point_strategy_end_to_end(self):
        platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2))
        strategy = TimePointStrategy([TimePoint(5.0, 10), TimePoint(20.0, 20)])
        spec = two_grade_task(strategy=strategy)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        result = platform.result(spec.task_id)
        assert result.state is TaskState.COMPLETED
        assert result.flow_stats.delivered == 20
        # Aggregation happened after the dispatch points drained.
        assert result.rounds[0].n_updates == 20

    def test_time_interval_strategy_end_to_end(self):
        platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2))
        strategy = TimeIntervalStrategy(right_tailed_normal(1.0), interval_seconds=30.0)
        spec = two_grade_task(strategy=strategy, rounds=2)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        result = platform.result(spec.task_id)
        assert result.state is TaskState.COMPLETED
        assert result.flow_stats.delivered == 40  # 20 devices x 2 rounds
        assert len(result.rounds) == 2


class TestSkewThroughPlatform:
    def test_skewed_task_records_biases(self):
        platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2))
        spec = two_grade_task(skew={"positive_fraction": 0.7, "spread": 2.0})
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        assert platform.result(spec.task_id).state is TaskState.COMPLETED


def one_task_run(alpha_scale):
    """Run one two-tier task to idle: (makespan, kernel events fired).

    The allocation is fixed, so a slower logical tier changes only the instants, not the plans.
    """
    platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2))
    cost = LogicalCostModel(alpha={grade: alpha * alpha_scale for grade, alpha in DEFAULT_ALPHA.items()})
    platform.submit(two_grade_task(rounds=2), fixed_allocation={"High": 6, "Low": 6}, logical_cost=cost)
    events = 0
    while not platform.task_manager.all_idle:
        events += platform.sim.step_batch()
    return platform.sim.now, events


class TestKernelEvents:
    def test_event_count_does_not_grow_with_the_makespan(self):
        """No platform process polls: a ten-times-slower logical tier schedules no more events."""
        makespan, events = one_task_run(1.0)
        slow_makespan, slow_events = one_task_run(10.0)
        assert slow_makespan > 2 * makespan
        assert slow_events <= events


class TestPlatformConfigValidation:
    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            # Used to end a task with a benchmarking phone FAILED mid-run.
            ("poll_interval", float("nan"), "poll_interval must be a finite number > 0, got nan"),
            # Used to crash the run ("cannot schedule at inf").
            ("poll_interval", float("inf"), "poll_interval must be a finite number > 0, got inf"),
            # Used to kill a flow task's sender with a ProcessError.
            ("deviceflow_capacity", float("nan"), "deviceflow_capacity must be a finite number > 0, got nan"),
            ("deviceflow_capacity", 0.0, "deviceflow_capacity must be a finite number > 0, got 0.0"),
            # Used to be accepted and silently read as no latency.
            ("msp_control_latency", float("nan"), "msp_control_latency must be a finite number >= 0, got nan"),
            ("msp_control_latency", -1.0, "msp_control_latency must be a finite number >= 0, got -1.0"),
            # Used to be rejected only inside SimDC(), without the field name.
            ("msp_availability", float("nan"), r"msp_availability must be in \[0, 1\], got nan"),
            ("msp_availability", 1.5, r"msp_availability must be in \[0, 1\], got 1.5"),
        ],
    )
    def test_unusable_numbers_fail_at_construction_naming_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PlatformConfig(**{field: value})


class TestProcessCount:
    """Per-device and per-chunk work runs as kernel callbacks, not generator processes.

    Framework start-up (one per computing phone), the DeviceFlow sender (one
    per idle-to-busy transition) and the round's drain poll are callback
    loops; as processes their count would grow with the fleet and the traffic.
    """

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_processes_per_run_do_not_depend_on_device_count(self, name, monkeypatch):
        created = [0]
        init = Process.__init__

        def counting_init(process, *args, **kwargs):
            created[0] += 1
            init(process, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting_init)
        counts = []
        for scale in (200, 800):
            created[0] = 0
            ScenarioRunner(build_scenario(name, scale=scale)).run()
            counts.append(created[0])
        assert counts[0] == counts[1], counts
