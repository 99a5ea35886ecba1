"""Tests for task specs, queue, resource manager and greedy scheduler."""

import pytest

from repro.cluster import K8sCluster, NodeSpec, ResourceBundle
from repro.phones import VirtualPhone
from repro.phones.specs import build_fleet
from repro.scheduler import (
    GradeRequirement,
    GreedyTaskScheduler,
    ResourceManager,
    TaskQueue,
    TaskSpec,
    TaskState,
)
from repro.simkernel import RandomStreams, Simulator


def make_spec(name="t", priority=0, bundles=10, n_phones=2, n_devices=20, grade="High"):
    return TaskSpec(
        name=name,
        priority=priority,
        grades=[
            GradeRequirement(
                grade=grade,
                n_devices=n_devices,
                bundles=bundles,
                n_phones=n_phones,
                device_bundle=ResourceBundle(cpus=1, memory_gb=1),
            )
        ],
    )


class TestTaskSpec:
    def test_unique_task_ids(self):
        assert make_spec().task_id != make_spec().task_id

    def test_default_flow_installed(self):
        spec = make_spec()
        assert spec.flow is not None
        assert spec.flow.describe()[0] == "download_model"

    def test_totals(self):
        spec = TaskSpec(
            name="multi",
            grades=[
                GradeRequirement("High", n_devices=10, bundles=8, n_phones=1, n_benchmark=2),
                GradeRequirement("Low", n_devices=20, bundles=6, n_phones=3),
            ],
        )
        assert spec.total_devices == 30
        assert spec.total_bundles_requested == 14
        assert spec.phones_requested() == {"High": 3, "Low": 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(name="x", grades=[])
        with pytest.raises(ValueError):
            make_spec(n_devices=0)
        with pytest.raises(ValueError):
            TaskSpec(name="x", grades=[make_spec().grades[0]], rounds=0)
        with pytest.raises(ValueError):
            GradeRequirement("High", n_devices=5, bundles=0, n_phones=0)
        with pytest.raises(ValueError):
            TaskSpec(
                name="dup",
                grades=[
                    GradeRequirement("High", 5, bundles=1),
                    GradeRequirement("High", 5, bundles=1),
                ],
            )


    @pytest.mark.parametrize(("numeric", "records", "floor"), [(False, 0, 1), (True, 1, 2), (True, 0, 2)])
    def test_records_per_device_fails_at_construction_naming_the_field(self, numeric, records, floor):
        # It used to be accepted, scheduled, and fail mid-run inside plan
        # building (time-only) or dataset synthesis (numeric).
        grades = [GradeRequirement("High", n_devices=4, bundles=4)]
        with pytest.raises(ValueError, match=rf"records_per_device must be >= {floor} .*got {records}"):
            TaskSpec(name="x", grades=grades, numeric=numeric, records_per_device=records)
        TaskSpec(name="x", grades=grades, numeric=numeric, records_per_device=floor)


class TestTaskQueue:
    def test_priority_then_fifo(self):
        queue = TaskQueue()
        low1 = queue.submit(make_spec("low1", priority=1))
        high = queue.submit(make_spec("high", priority=9))
        low2 = queue.submit(make_spec("low2", priority=1))
        order = [s.task_id for s in queue.snapshot()]
        assert order == [high.task_id, low1.task_id, low2.task_id]
        assert queue.peek() is high

    def test_submit_marks_queued(self):
        queue = TaskQueue()
        spec = queue.submit(make_spec())
        assert spec.state is TaskState.QUEUED

    def test_duplicate_rejected(self):
        queue = TaskQueue()
        spec = queue.submit(make_spec())
        with pytest.raises(ValueError):
            queue.submit(spec)

    def test_remove(self):
        queue = TaskQueue()
        spec = queue.submit(make_spec())
        assert queue.remove(spec.task_id) is spec
        assert len(queue) == 0
        with pytest.raises(KeyError):
            queue.remove(spec.task_id)


def make_rm(n_high=4, n_low=4, cores=40):
    sim = Simulator()
    cluster = K8sCluster([NodeSpec(cpus=cores / 2, memory_gb=cores / 2)] * 2)
    streams = RandomStreams(0)
    phones = [
        VirtualPhone(sim, f"p{i}", spec, streams=streams)
        for i, spec in enumerate(build_fleet(n_high, n_low, "SIM"))
    ]
    return ResourceManager(cluster, phones, ResourceBundle(cpus=1.0, memory_gb=1.0))


class TestResourceManager:
    def test_total_bundles_from_cluster(self):
        rm = make_rm(cores=40)
        assert rm.total_bundles() == 40

    def test_snapshot_counts_phones_by_grade(self):
        rm = make_rm(n_high=3, n_low=5)
        snap = rm.snapshot()
        assert snap.free_phones == {"High": 3, "Low": 5}

    def test_freeze_release_cycle(self):
        rm = make_rm()
        spec = make_spec(bundles=10, n_phones=2)
        rm.freeze(spec)
        snap = rm.snapshot()
        assert snap.free_bundles == 30
        assert snap.free_phones["High"] == 2
        assert rm.active_grants == 1
        rm.release(spec.task_id)
        assert rm.snapshot().free_bundles == 40
        assert rm.active_grants == 0

    def test_over_freeze_rejected(self):
        rm = make_rm()
        spec = make_spec(bundles=100)
        with pytest.raises(RuntimeError, match="insufficient"):
            rm.freeze(spec)

    def test_double_freeze_rejected(self):
        rm = make_rm()
        spec = make_spec(bundles=5)
        rm.freeze(spec)
        with pytest.raises(RuntimeError):
            rm.freeze(spec)

    def test_release_unknown(self):
        rm = make_rm()
        with pytest.raises(KeyError):
            rm.release("ghost")

    def test_scale_up_adds_bundles(self):
        rm = make_rm(cores=40)
        rm.scale_up(NodeSpec(cpus=10, memory_gb=10), count=2)
        assert rm.total_bundles() == 60

    def test_scale_down_drains_idle_nodes(self):
        rm = make_rm(cores=40)
        added = rm.scale_up(NodeSpec(cpus=10, memory_gb=10), count=2)
        rm.scale_down(added)
        assert rm.total_bundles() == 40
        assert all(nid not in rm.cluster.nodes for nid in added)

    def test_scale_down_is_transactional_on_busy_node(self):
        """A busy node mid-list must leave the whole cluster untouched.

        Regression: scale_down used to remove nodes one-by-one and blow
        up mid-loop on the first busy node, stranding the nodes before it
        already drained.
        """
        rm = make_rm(cores=40)
        added = rm.scale_up(NodeSpec(cpus=10, memory_gb=10), count=3)
        busy = rm.cluster.nodes[added[1]]
        busy.allocate(ResourceBundle(cpus=1.0, memory_gb=1.0))
        before = set(rm.cluster.nodes)
        with pytest.raises(RuntimeError, match="nothing was removed"):
            rm.scale_down(added)
        assert set(rm.cluster.nodes) == before
        assert rm.total_bundles() == 70

    def test_scale_down_is_transactional_on_unknown_node(self):
        rm = make_rm(cores=40)
        added = rm.scale_up(NodeSpec(cpus=10, memory_gb=10), count=2)
        before = set(rm.cluster.nodes)
        with pytest.raises(KeyError, match="nothing was removed"):
            rm.scale_down([added[0], "ghost", added[1]])
        assert set(rm.cluster.nodes) == before

    def test_scale_down_dedupes_node_ids(self):
        rm = make_rm(cores=40)
        added = rm.scale_up(NodeSpec(cpus=10, memory_gb=10), count=1)
        rm.scale_down([added[0], added[0]])
        assert rm.total_bundles() == 40

    def test_phone_shortage_detected(self):
        rm = make_rm(n_high=1)
        spec = make_spec(n_phones=3)
        with pytest.raises(RuntimeError):
            rm.freeze(spec)


class TestGreedyScheduler:
    def test_schedules_in_priority_order_within_capacity(self):
        rm = make_rm(cores=40)
        queue = TaskQueue()
        big = queue.submit(make_spec("big", priority=5, bundles=30, n_phones=0, n_devices=30))
        small = queue.submit(make_spec("small", priority=1, bundles=15, n_phones=0))
        decision = GreedyTaskScheduler().plan(queue, rm.snapshot())
        # big fits (30 <= 40); small then needs 15 > 10 remaining.
        assert [s.task_id for s in decision.scheduled] == [big.task_id]
        assert [s.task_id for s in decision.skipped] == [small.task_id]
        assert decision.total_benefit == 5

    def test_packs_multiple_fitting_tasks(self):
        rm = make_rm(cores=40)
        queue = TaskQueue()
        queue.submit(make_spec("a", priority=2, bundles=15, n_phones=1))
        queue.submit(make_spec("b", priority=1, bundles=15, n_phones=1))
        decision = GreedyTaskScheduler().plan(queue, rm.snapshot())
        assert len(decision.scheduled) == 2

    def test_lower_priority_can_fill_gap(self):
        """Greedy: a small low-priority task runs when the big one can't."""
        rm = make_rm(cores=20)
        queue = TaskQueue()
        queue.submit(make_spec("huge", priority=9, bundles=50, n_phones=0))
        tiny = queue.submit(make_spec("tiny", priority=1, bundles=5, n_phones=0))
        decision = GreedyTaskScheduler().plan(queue, rm.snapshot())
        assert [s.task_id for s in decision.scheduled] == [tiny.task_id]

    def test_plan_does_not_mutate_pool_or_queue(self):
        rm = make_rm()
        queue = TaskQueue()
        queue.submit(make_spec(bundles=10))
        snap = rm.snapshot()
        GreedyTaskScheduler().plan(queue, snap)
        assert len(queue) == 1
        assert rm.snapshot().free_bundles == snap.free_bundles
