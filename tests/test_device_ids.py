"""The id column of a time-only plan: the list it replaces, rendered only when read."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GradeRequirement, PlatformConfig, ResourceBundle, SimDC, TaskSpec, TaskState
from repro.cloud.transport import ChannelModel
from repro.cluster import NodeSpec
from repro.cluster.rounds import DeviceIdRange
from repro.ml import standard_fl_flow
from repro.observability.tracing import Tracer
from repro.scheduler.task_runner import TaskRunner

BOUNDS = st.one_of(st.none(), st.integers(-14, 14))


def root_of(ids):
    return ids if ids.root is None else ids.root


def by_index(ids):
    return [ids[i] for i in range(len(ids))]


def outcome(operation):
    """What ``operation`` returns, or the exception type it raises."""
    try:
        return operation()
    except (IndexError, ValueError) as exc:
        return type(exc)


class TestEqualsTheListItReplaces:
    @given(
        prefix=st.text(max_size=6),
        n=st.integers(0, 12),
        chain=st.lists(st.tuples(BOUNDS, BOUNDS, st.sampled_from([None, 1, 2, 3])), max_size=4),
        probe=st.tuples(BOUNDS, BOUNDS),
        render_first=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_len_index_slice_and_iteration_agree_before_and_after_rendering(
        self, prefix, n, chain, probe, render_first
    ):
        want = [f"{prefix}{i:06d}" for i in range(n)]
        ids = root = DeviceIdRange(prefix, range(n))
        if render_first:
            assert list(root) == want
        for lo, hi, step in chain:
            ids, want = ids[lo:hi:step], want[lo:hi:step]
        # First pass reads by length, index and slice only, which renders nothing; iterating then
        # renders the root, and the second pass reads the same column rendered.
        for rendered in (render_first, True):
            assert len(ids) == len(want)
            for index in range(-len(want) - 2, len(want) + 2):
                assert outcome(lambda: ids[index]) == outcome(lambda: want[index])
            assert by_index(ids[probe[0] : probe[1]]) == want[probe[0] : probe[1]]
            assert (root.rendered is not None) == rendered
            assert list(ids) == want
        assert root.rendered == [f"{prefix}{i:06d}" for i in range(n)]

    def test_a_rendered_column_hands_out_lists_of_the_one_rendering(self):
        root = DeviceIdRange("t-High-", range(6))
        early = root[1:5]  # cut before anything rendered
        assert isinstance(early, DeviceIdRange) and root.rendered is None
        first = list(early)
        assert type(root[1:5]) is list and type(early[::2]) is list
        # One rendering: every later read hands out the same str objects.
        for again, once in zip([*early[:], *root[1:5], early[0]], [*first, *first, first[0]]):
            assert again is once

    def test_backward_slices_are_refused_not_misread(self):
        with pytest.raises(ValueError, match="forwards"):
            DeviceIdRange("d", range(4))[::-1]

    def test_a_column_dies_with_its_last_reference(self):
        """A root that pointed at itself kept every plan's ids alive until the cyclic collector ran."""
        gc.collect()
        gc.disable()
        try:
            root = DeviceIdRange("d", range(50))
            child = root[10:20]
            assert len(list(child)) == 10
            del root, child
            assert gc.collect() == 0
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# the tripwire: a direct time-only round reads no id
# ----------------------------------------------------------------------
def run_time_only_task(monkeypatch, channel=None, tracer=None):
    """One direct, time-only task on both tiers with a benchmarking phone; returns its plans."""
    built = []
    build_plans = TaskRunner._build_plans

    def spy(self, dataset, allocation):
        built.append(build_plans(self, dataset, allocation))
        return built[-1]

    monkeypatch.setattr(TaskRunner, "_build_plans", spy)
    platform = SimDC(
        PlatformConfig(
            seed=3, cluster_nodes=[NodeSpec(cpus=20, memory_gb=30)] * 2, channel=channel, tracer=tracer
        )
    )
    spec = TaskSpec(
        name="tripwire",
        grades=[
            GradeRequirement(
                grade="High", n_devices=40, bundles=8, n_phones=2, n_benchmark=1,
                device_bundle=ResourceBundle(cpus=2, memory_gb=2),
            )
        ],
        rounds=3,
        flow=standard_fl_flow(epochs=1),
        numeric=False,
        records_per_device=10,
    )
    platform.submit(spec, fixed_allocation={"High": 25})
    platform.run_until_idle(max_time=1e7)
    result = platform.result(spec.task_id)
    assert result.state is TaskState.COMPLETED
    if channel is None:
        assert [record.n_updates for record in result.rounds] == [40] * 3
    ((logical_plans, phone_plans),) = built
    assert len(logical_plans) == 1 and len(phone_plans) == 1
    assert len(logical_plans[0].devices) == 25 and len(phone_plans[0].devices) == 14
    return spec, [logical_plans[0].devices, phone_plans[0].devices, phone_plans[0].benchmarking]


def test_a_direct_time_only_task_renders_no_id_column(monkeypatch):
    _, columns = run_time_only_task(monkeypatch)
    for devices in columns:
        assert isinstance(devices.device_ids, DeviceIdRange)
        assert root_of(devices.device_ids).rendered is None


def test_behind_a_lossy_channel_each_plan_renders_once_for_all_its_rounds(monkeypatch):
    tracer = Tracer()
    spec, columns = run_time_only_task(monkeypatch, channel=ChannelModel(loss_prob=0.3, dup_prob=0.2), tracer=tracer)
    (root,) = {id(root_of(devices.device_ids)): root_of(devices.device_ids) for devices in columns}.values()
    assert root.rendered == [f"{spec.task_id}-High-{i:06d}" for i in range(40)]
    # Three rounds of uploads, one str object per device: nothing re-rendered an id.
    uploads = {}
    for _, device_id, *_ in tracer.uploads:
        uploads.setdefault(device_id, []).append(device_id)
    assert len(uploads) == 40 and all(len(seen) == 3 for seen in uploads.values())
    rendered = {device_id: device_id for device_id in root.rendered}
    for device_id, seen in uploads.items():
        assert all(one is rendered[device_id] for one in seen)
