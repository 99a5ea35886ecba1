"""End-to-end platform tests: SimDC tasks through every substrate."""

import gc
import re

import pytest

from repro import (
    GradeRequirement,
    PlatformConfig,
    RealTimeAccumulatedStrategy,
    ResourceBundle,
    SimDC,
    TaskSpec,
    TaskState,
)
from repro.cluster import NodeSpec
from repro.data import make_federated_ctr_data
from repro.deviceflow import MessageBlock
from repro.ml import standard_fl_flow


def small_platform(seed=0):
    config = PlatformConfig(
        seed=seed,
        cluster_nodes=[NodeSpec(cpus=20, memory_gb=30)] * 2,
    )
    return SimDC(config)


def small_task(name="e2e", rounds=2, n_devices=8, bundles=8, n_phones=2, n_benchmark=0,
               strategy=None, numeric=True, priority=0):
    return TaskSpec(
        name=name,
        priority=priority,
        grades=[
            GradeRequirement(
                grade="High",
                n_devices=n_devices,
                bundles=bundles,
                n_phones=n_phones,
                n_benchmark=n_benchmark,
                device_bundle=ResourceBundle(cpus=2, memory_gb=2),
            )
        ],
        rounds=rounds,
        flow=standard_fl_flow(epochs=1),
        deviceflow_strategy=strategy,
        numeric=numeric,
        feature_dim=128,
        records_per_device=10,
    )


class TestEndToEnd:
    def test_numeric_task_completes_and_learns(self):
        platform = small_platform()
        spec = small_task(rounds=3)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        result = platform.result(spec.task_id)
        assert result.state is TaskState.COMPLETED
        assert len(result.rounds) == 3
        assert result.rounds[0].n_updates == 8
        assert result.rounds[-1].test_accuracy is not None
        # FedAvg over LR on learnable synthetic data: loss must improve.
        assert result.rounds[-1].test_loss <= result.rounds[0].test_loss + 1e-6
        assert result.makespan > 0

    @pytest.mark.parametrize("flow_attached", [True, False])
    def test_numeric_task_never_writes_to_its_shards(self, flow_attached):
        # Shards are read-only views of one shared matrix: a consumer that
        # mutated its data in place (either tier; delivered per wave through
        # DeviceFlow or per plan) would raise.
        platform = small_platform()
        strategy = RealTimeAccumulatedStrategy([3]) if flow_attached else None
        spec = small_task(rounds=2, n_devices=12, n_phones=3, strategy=strategy)
        dataset = make_federated_ctr_data(12, records_per_device=10, feature_dim=128, seed=0)
        assert not dataset.shard("dev-000000").features.flags.writeable
        before = [(shard.features.copy(), shard.labels.copy()) for shard in dataset.devices.values()]
        platform.submit(spec, dataset=dataset, fixed_allocation={"High": 9})
        platform.run_until_idle(max_time=1e7)
        result = platform.result(spec.task_id)
        assert result.state is TaskState.COMPLETED
        assert (result.allocation.grades[0].logical, result.allocation.grades[0].physical) == (9, 3)
        assert [r.n_updates for r in result.rounds] == [12, 12]
        for shard, (features, labels) in zip(dataset.devices.values(), before):
            assert (shard.features == features).all() and (shard.labels == labels).all()

    def test_allocation_recorded(self):
        platform = small_platform()
        spec = small_task()
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        allocation = platform.result(spec.task_id).allocation
        assert allocation is not None
        assert allocation.x["High"] + allocation.grades[0].physical == 8

    def test_deviceflow_path(self):
        platform = small_platform()
        spec = small_task(strategy=RealTimeAccumulatedStrategy([3]), rounds=2)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        result = platform.result(spec.task_id)
        assert result.state is TaskState.COMPLETED
        assert result.flow_stats is not None
        assert result.flow_stats.received == 16  # 8 devices x 2 rounds
        assert result.flow_stats.delivered == 16

    def test_deviceflow_dropout_reduces_aggregated_updates(self):
        platform = small_platform()
        spec = small_task(
            strategy=RealTimeAccumulatedStrategy([1], failure_prob=0.5),
            rounds=1, n_devices=20, bundles=20, n_phones=3,
        )
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        result = platform.result(spec.task_id)
        assert result.rounds[0].n_updates < 20
        assert result.flow_stats.dropped_failure > 0

    def test_benchmark_devices_measured(self):
        platform = small_platform()
        spec = small_task(n_benchmark=1, rounds=1)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        samples = platform.db.query("device_samples", task_id=spec.task_id)
        assert len(samples) > 30  # ~76 s session at 1 Hz
        assert {"current_ua", "cpu_percent", "memory_kb"} <= set(samples[0])

    def test_fixed_allocation_override(self):
        platform = small_platform()
        spec = small_task()
        platform.submit(spec, fixed_allocation={"High": 8})
        platform.run_until_idle(max_time=1e7)
        allocation = platform.result(spec.task_id).allocation
        assert allocation.solver == "fixed"
        assert allocation.x["High"] == 8

    def test_submit_rejects_a_grade_without_cost_constants(self):
        spec = small_task()
        spec.grades[0].grade = "Mid"
        message = (
            "grade 'Mid' of task 'e2e' has no calibrated cost constants (alpha, beta and lambda); "
            "known grades: ['High', 'Low']"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            small_platform().submit(spec)

    def test_submit_rejects_a_fixed_allocation_that_misses_the_grades(self):
        low = GradeRequirement(
            grade="Low", n_devices=4, bundles=4, n_phones=1, device_bundle=ResourceBundle(cpus=2, memory_gb=2)
        )
        spec = small_task()
        spec.grades.append(low)
        platform = small_platform()
        message = "fixed_allocation of task 'e2e' names grades ['High']; the task's grades are ['High', 'Low']"
        with pytest.raises(ValueError, match=re.escape(message)):
            platform.submit(spec, fixed_allocation={"High": 8})
        message = "fixed_allocation['Low']=5 of task 'e2e' is outside [0, 4] (known grades: ['High', 'Low'])"
        with pytest.raises(ValueError, match=re.escape(message)):
            platform.submit(spec, fixed_allocation={"High": 8, "Low": 5})

    @pytest.mark.parametrize("seen", ["PENDING", "QUEUED", "RUNNING", "COMPLETED"])
    def test_submit_rejects_a_task_id_it_has_seen(self, seen):
        # A second task under a known id used to die inside a scheduling pass
        # (a kernel event for ``at=``: every tenant's run aborted) or, after
        # the first finished, to overwrite its result and reuse its streams.
        platform = small_platform()  # 40 bundles total
        first = small_task("first", rounds=1, bundles=30)
        if seen == "QUEUED":  # behind a task holding the bundles it needs
            platform.submit(small_task("blocker", rounds=1, bundles=30))
        platform.submit(first, at=50.0 if seen == "PENDING" else None)  # deferred, not yet arrived
        if seen == "RUNNING":
            platform.sim.run(until=1.0)
        elif seen == "COMPLETED":
            platform.run_until_idle(max_time=1e7)
        assert first.state.value == seen
        finished = platform.results.get(first.task_id)
        message = (
            f"task_id {first.task_id!r} of task 'second' is taken: task 'first' was submitted with it and is {seen}"
        )
        for at in (None, platform.sim.now + 10.0):
            second = small_task("second", rounds=1)
            second.task_id = first.task_id
            with pytest.raises(ValueError, match=re.escape(message)):
                platform.submit(second, at=at)
        # The refusal cost the first task nothing.
        platform.run_until_idle(max_time=1e7)
        result = platform.result(first.task_id)
        assert result.state is TaskState.COMPLETED and finished in (None, result)
        assert [r.state for r in platform.results.values()] == [TaskState.COMPLETED] * (1 + (seen == "QUEUED"))

    def test_time_only_task(self):
        platform = small_platform()
        spec = small_task(numeric=False, rounds=1, n_devices=30, bundles=10, n_phones=3)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        result = platform.result(spec.task_id)
        assert result.state is TaskState.COMPLETED
        assert result.rounds[0].n_updates == 30
        assert result.rounds[0].test_accuracy is None  # counting mode

    def test_concurrent_tasks_share_resources(self):
        platform = small_platform()
        first = small_task("first", rounds=1, bundles=8, n_phones=1)
        second = small_task("second", rounds=1, bundles=8, n_phones=1)
        platform.submit(first)
        platform.submit(second)
        platform.run_until_idle(max_time=1e7)
        assert platform.result(first.task_id).state is TaskState.COMPLETED
        assert platform.result(second.task_id).state is TaskState.COMPLETED
        # Both fit side by side (16 bundles <= 40), so they overlap.
        r1, r2 = platform.result(first.task_id), platform.result(second.task_id)
        assert r1.started_at < r2.finished_at and r2.started_at < r1.finished_at

    def test_queued_task_waits_for_resources(self):
        platform = small_platform()  # 40 bundles total
        big = small_task("big", rounds=1, bundles=30, n_phones=2, priority=5)
        other = small_task("other", rounds=1, bundles=30, n_phones=2, priority=1)
        platform.submit(big)
        platform.submit(other)
        platform.run_until_idle(max_time=1e7)
        r_big = platform.result(big.task_id)
        r_other = platform.result(other.task_id)
        # 60 bundles cannot co-run on 40: the second starts after the first ends.
        assert r_other.started_at >= r_big.finished_at

    def test_monitor_records_lifecycle(self):
        platform = small_platform()
        spec = small_task(rounds=1)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        kinds = platform.monitor.summary()
        assert kinds["task_submitted"] == 1
        assert kinds["task_scheduled"] == 1
        assert kinds["task_completed"] == 1
        assert kinds["round_aggregated"] == 1

    def test_resources_fully_released_after_tasks(self):
        platform = small_platform()
        spec = small_task(rounds=1)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        assert platform.resource_manager.active_grants == 0
        assert platform.cluster.free_cpus == platform.cluster.total_cpus
        assert len(platform._busy_registry) == 0

    def test_deterministic_across_runs(self):
        def run_once():
            platform = small_platform(seed=7)
            spec = small_task(rounds=2)
            platform.submit(spec)
            platform.run_until_idle(max_time=1e7)
            result = platform.result(spec.task_id)
            return (result.makespan, result.rounds[-1].test_loss)

        assert run_once() == run_once()


class TestNothingRetained:
    def test_a_finished_run_holds_no_message_block(self):
        # A block lives as long as its round's deliveries: nothing on the
        # platform keeps a finished round's results (or its update matrix).
        platform = small_platform()
        spec = TaskSpec(
            name="retained",
            grades=[
                GradeRequirement(
                    grade=grade, n_devices=12, bundles=8, n_phones=2, n_benchmark=1,
                    device_bundle=ResourceBundle(cpus=2, memory_gb=2),
                )
                for grade in ("High", "Low")
            ],
            rounds=3,
            flow=standard_fl_flow(epochs=1),
            numeric=True,
            feature_dim=64,
            records_per_device=10,
        )
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        result = platform.result(spec.task_id)
        assert result.state is TaskState.COMPLETED
        assert [record.n_updates for record in result.rounds] == [24, 24, 24]
        gc.collect()
        assert sum(isinstance(obj, MessageBlock) for obj in gc.get_objects()) == 0
