"""Tests for task specs, queue, resource manager and greedy scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import K8sCluster, NodeSpec, ResourceBundle
from repro.phones import VirtualPhone
from repro.phones.specs import build_fleet
from repro.scheduler import (
    GradeRequirement,
    GreedyTaskScheduler,
    ResourceManager,
    ResourceSnapshot,
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

    def test_remove_phones_is_transactional_on_unknown_phone(self):
        """Regression: ``[a, stranger, b]`` used to remove ``a``, then die in ``list.remove``."""
        rm = make_rm(n_high=3, n_low=2)
        stranger = VirtualPhone(Simulator(), "stranger", rm.phones[0].spec, streams=RandomStreams(0))
        fleet = list(rm.phones)
        with pytest.raises(ValueError, match=r"\['stranger'\] are not in the fleet; nothing was removed"):
            rm.remove_phones([fleet[0], stranger, fleet[1]])
        assert rm.phones == fleet
        assert rm.snapshot() == recounted_snapshot(rm)
        assert rm.phones_by_grade() == {"High": 3, "Low": 2}

    def test_remove_phones_dedupes_its_argument(self):
        rm = make_rm(n_high=3, n_low=2)
        fleet = list(rm.phones)
        rm.remove_phones([fleet[0], fleet[4], fleet[0]])
        assert rm.phones == fleet[1:4]
        assert rm.phones_by_grade() == {"High": 2, "Low": 1}
        rm.remove_phones([fleet[3]])  # the last Low phone: the grade leaves the counts, as in a recount
        assert rm.snapshot() == recounted_snapshot(rm)
        assert rm.phones_by_grade() == {"High": 2}


def recounted_snapshot(rm):
    """The oracle: ``snapshot()`` as it was computed before the counts were maintained — by scanning."""
    total = 0
    for node in rm.cluster.nodes.values():
        per_dim = []
        if rm.unit_bundle.cpus > 0:
            per_dim.append(node.spec.cpus / rm.unit_bundle.cpus)
        if rm.unit_bundle.memory_gb > 0:
            per_dim.append(node.spec.memory_gb / rm.unit_bundle.memory_gb)
        if rm.unit_bundle.gpus > 0:
            per_dim.append(node.spec.gpus / rm.unit_bundle.gpus)
        total += int(min(per_dim))
    free_phones = {}
    for phone in rm.phones:
        free_phones[phone.spec.grade] = free_phones.get(phone.spec.grade, 0) + 1
    for grade, frozen in rm._frozen_phones.items():
        free_phones[grade] = free_phones.get(grade, 0) - frozen
    return ResourceSnapshot(free_bundles=total - rm._frozen_bundles, free_phones=free_phones)


NODE_SPECS = [NodeSpec(cpus=10, memory_gb=10), NodeSpec(cpus=8, memory_gb=4.5), NodeSpec(cpus=3, memory_gb=16, gpus=1)]
RM_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["add_phones", "remove_phones", "scale_up", "scale_down", "freeze", "release"]),
        st.integers(0, 2**16),
    ),
    max_size=25,
)


class TestCountedSnapshotEqualsRecount:
    @given(steps=RM_STEPS, unit=st.sampled_from([ResourceBundle(1.0, 1.0), ResourceBundle(2.0, 3.0)]))
    @settings(max_examples=150, deadline=None)
    def test_after_any_sequence_of_mutators_accepted_or_rejected(self, steps, unit):
        rm = make_rm(n_high=3, n_low=2, cores=20)
        rm.unit_bundle = unit
        sim, streams = Simulator(), RandomStreams(0)
        # Phones outside the fleet, nodes scaled up, tasks holding grants.
        out = [VirtualPhone(sim, f"spare{i}", spec, streams=streams) for i, spec in enumerate(build_fleet(3, 3, "SIM"))]
        added, held = [], []
        for step, (op, pick) in enumerate(steps):
            try:
                if op == "add_phones":
                    arriving = out[: pick % 3]
                    rm.add_phones(arriving)
                    del out[: len(arriving)]
                elif op == "remove_phones":
                    # Sometimes a phone that is not in the fleet (rejected whole), sometimes one twice.
                    leaving = [rm.phones[i % len(rm.phones)] for i in (pick, pick // 7)] if rm.phones else []
                    if pick % 5 == 0 and out:
                        leaving.insert(1, out[0])
                    rm.remove_phones(leaving)
                    out.extend(dict.fromkeys(leaving))
                elif op == "scale_up":
                    added.extend(rm.scale_up(NODE_SPECS[pick % 3], count=pick % 2 + 1))
                elif op == "scale_down" and added:
                    node_id = added[pick % len(added)]
                    if pick % 4 == 0:  # rejected: a node that still hosts an allocation
                        rm.cluster.nodes[node_id].allocate(ResourceBundle(cpus=1.0, memory_gb=1.0))
                    rm.scale_down([node_id, "ghost"] if pick % 9 == 0 else [node_id])
                    added.remove(node_id)
                elif op == "freeze":
                    grade = ("High", "Low")[pick % 2]
                    spec = make_spec(f"t{step}", bundles=pick % 30, n_phones=pick % 4, grade=grade)
                    held.append(rm.freeze(spec).task_id)
                elif op == "release":
                    rm.release(held.pop(pick % len(held)) if held and pick % 6 else "ghost")
            except (ValueError, KeyError, RuntimeError):
                pass  # a rejected call must leave the counts where a recount finds them, too
            assert rm.snapshot() == recounted_snapshot(rm)
            assert rm.total_bundles() == recounted_snapshot(rm).free_bundles + rm._frozen_bundles
            assert sum(rm.phones_by_grade().values()) == len(rm.phones)


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
