"""Extended platform integration: MSP, scaling, strategies, reporting."""


from repro import (
    GradeRequirement,
    PlatformConfig,
    ResourceBundle,
    SimDC,
    TaskSpec,
    TaskState,
    TimeIntervalStrategy,
    TimePoint,
    TimePointStrategy,
)
from repro.cluster import NodeSpec
from repro.deviceflow import right_tailed_normal
from repro.ml import standard_fl_flow


def two_grade_task(name="multi", rounds=1, strategy=None, skew=None):
    return TaskSpec(
        name=name,
        grades=[
            GradeRequirement(
                grade="High", n_devices=10, bundles=8, n_phones=2,
                device_bundle=ResourceBundle(cpus=2, memory_gb=2),
            ),
            GradeRequirement(
                grade="Low", n_devices=10, bundles=6, n_phones=2,
                device_bundle=ResourceBundle(cpus=1, memory_gb=2),
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
                    device_bundle=ResourceBundle(cpus=2, memory_gb=2),
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
                    device_bundle=ResourceBundle(cpus=1, memory_gb=1),
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
        platform.run_until_idle(max_time=1e7)
        assert platform.result(spec.task_id).state is TaskState.COMPLETED

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
