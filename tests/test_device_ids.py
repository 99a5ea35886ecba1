"""The id column of a time-only plan: the list it replaces, rendered only when read."""

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GradeRequirement, PlatformConfig, ResourceBundle, SimDC, TaskSpec, TaskState
from repro.cloud.transport import ChannelModel
from repro.cluster import NodeSpec
from repro.cluster.rounds import DeviceIdRange
from repro.deviceflow import RealTimeAccumulatedStrategy, TimeIntervalStrategy, right_tailed_normal
from repro.deviceflow.messages import MessageBlock
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


STRIDES = st.sampled_from([None, 1, 2, 3])
#: What DeviceFlow does to a segment's id column: a row range, a dropout mask, a join with another range.
column_ops = st.lists(
    st.one_of(
        st.tuples(st.just("slice"), BOUNDS, BOUNDS, STRIDES),
        st.tuples(st.just("mask"), st.integers(0, 2**14 - 1)),
        st.tuples(st.just("join"), BOUNDS, BOUNDS, STRIDES),
    ),
    max_size=5,
)


class TestSelectionsEqualTheListOperations:
    @given(
        prefix=st.text(max_size=4),
        n=st.integers(0, 12),
        ops=column_ops,
        render_at=st.integers(0, 6),
        probe=st.tuples(BOUNDS, BOUNDS, STRIDES),
    )
    @settings(max_examples=400, deadline=None)
    def test_sliced_selected_and_joined_columns_read_like_the_rendered_list(self, prefix, n, ops, render_at, probe):
        """Blocks cut, thinned and coalesced as DeviceFlow does; ``render_at`` past the ops renders after them."""
        root = DeviceIdRange(prefix, range(n))
        block, rows = MessageBlock(task_id="t", round_index=0, device_ids=root), list(range(n))
        for step, (kind, *args) in enumerate(ops):
            if step == render_at:
                list(root)
            if kind == "slice":
                block, rows = block[args[0] : args[1] : args[2]], rows[args[0] : args[1] : args[2]]
            elif kind == "mask":
                flags = [bool(args[0] >> row & 1) for row in range(len(rows))]
                block, rows = block.compress(np.array(flags, dtype=bool)), list(itertools.compress(rows, flags))
            else:
                part = MessageBlock(task_id="t", round_index=0, device_ids=root[args[0] : args[1] : args[2]])
                (block,) = MessageBlock.coalesce([block, part])
                rows += range(n)[args[0] : args[1] : args[2]]
        ids, want = block.device_ids, [f"{prefix}{row:06d}" for row in rows]
        assert isinstance(ids, DeviceIdRange) == (root.rendered is None)
        if isinstance(ids, DeviceIdRange):
            with pytest.raises(ValueError, match="forwards"):
                ids[::-1]
        lo, hi, stride = probe
        for _ in range(2):  # unrendered reads first when nothing rendered yet, then the rendered column
            assert len(ids) == len(want)
            for index in range(-len(want) - 2, len(want) + 2):
                assert outcome(lambda: ids[index]) == outcome(lambda: want[index])
            assert by_index(ids[lo:hi:stride]) == want[lo:hi:stride]
            assert list(ids[lo:hi:stride]) == want[lo:hi:stride]
            assert list(ids) == want
        # Every string handed out after rendering is the root's own object.
        own = [root.rendered[row] for row in rows]
        for read in (list(ids), by_index(ids), list(ids[:])):
            assert all(got is mine for got, mine in zip(read, own, strict=True))

    def test_a_join_across_roots_or_with_a_list_renders_a_list(self):
        first, second = DeviceIdRange("a", range(3)), DeviceIdRange("b", range(2))
        assert first.concat([first[1:], second]) == ["a000001", "a000002", "b000000", "b000001"]
        assert first.concat([first[:1], ["x"]]) == ["a000000", "x"]
        (joined,) = MessageBlock.coalesce(
            [MessageBlock(task_id="t", round_index=0, device_ids=ids) for ids in (["x"], second)]
        )
        assert joined.device_ids == ["x", "b000000", "b000001"]

    def test_a_selection_of_an_unrendered_root_is_one_column_over_it(self):
        root = DeviceIdRange("d", range(6))
        survivors = root[1:].select([True, False, True, True, False])
        assert isinstance(survivors, DeviceIdRange) and survivors.rows == [1, 3, 4]
        chunk = survivors.concat([survivors, root[5:]])
        assert chunk.root is root and chunk.rows == [1, 3, 4, 5] and root.rendered is None
        with pytest.raises(ValueError, match="forwards"):
            chunk[::-2]
        assert list(chunk[1:]) == ["d000003", "d000004", "d000005"]


# ----------------------------------------------------------------------
# the tripwire: a direct time-only round reads no id
# ----------------------------------------------------------------------
def run_time_only_task(monkeypatch, channel=None, tracer=None, strategy=None):
    """One time-only task on both tiers with a benchmarking phone; returns its plans.

    Direct unless ``strategy`` routes it through DeviceFlow.
    """
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
        deviceflow_strategy=strategy,
    )
    platform.submit(spec, fixed_allocation={"High": 25})
    platform.run_until_idle(max_time=1e7)
    result = platform.result(spec.task_id)
    assert result.state is TaskState.COMPLETED
    if channel is None and strategy is None:
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


@pytest.mark.parametrize(
    "strategy",
    [
        lambda: RealTimeAccumulatedStrategy([3, 5], failure_prob=0.3),
        lambda: TimeIntervalStrategy(right_tailed_normal(1.0), 20.0, failure_prob=0.3),
    ],
    ids=["threshold", "interval"],
)
def test_dropout_and_delivery_through_deviceflow_render_no_id_column(monkeypatch, strategy):
    """Survivor selections and delivery chunks stay selections of the plan's unrendered root."""
    calls = {"compress": 0, "coalesce": 0}
    compress, coalesce = MessageBlock.compress, MessageBlock.coalesce

    def counted_compress(self, keep):
        calls["compress"] += 1
        return compress(self, keep)

    def counted_coalesce(segments):
        joined = coalesce(segments)
        calls["coalesce"] += len(segments) - len(joined)
        return joined

    monkeypatch.setattr(MessageBlock, "compress", counted_compress)
    monkeypatch.setattr(MessageBlock, "coalesce", staticmethod(counted_coalesce))
    _, columns = run_time_only_task(monkeypatch, strategy=strategy())
    assert calls["compress"] > 0 and calls["coalesce"] > 0  # dropout thinned blocks, chunks joined parts
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
