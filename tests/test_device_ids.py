"""The one id column: rows of an id table, a generated table rendered only when read."""

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GradeRequirement, PlatformConfig, SimDC, TaskSpec, TaskState
from repro.cloud.transport import ChannelModel
from repro.cluster import NodeSpec
from repro.cluster.rounds import IdColumn, IdTable
from repro.deviceflow import RealTimeAccumulatedStrategy, TimeIntervalStrategy, right_tailed_normal
from repro.deviceflow import dispatcher
from repro.deviceflow.messages import MessageBlock
from repro.ml import standard_fl_flow
from repro.observability.tracing import Tracer
from repro.scheduler.task_runner import TaskRunner

BOUNDS = st.one_of(st.none(), st.integers(-14, 14))


def generated(prefix, n):
    return IdColumn(IdTable(prefix, n), range(n))


def table(prefix, n, dataset):
    """A plan's whole column: over a dataset's own id list, or over a generated table."""
    names = [f"{prefix}{i:06d}" for i in range(n)]
    return IdColumn.of(list(names)) if dataset else generated(prefix, n)


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
        dataset=st.booleans(),
        chain=st.lists(st.tuples(BOUNDS, BOUNDS, st.sampled_from([None, 1, 2, 3])), max_size=4),
        probe=st.tuples(BOUNDS, BOUNDS),
        render_first=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_len_index_slice_and_iteration_agree_before_and_after_rendering(
        self, prefix, n, dataset, chain, probe, render_first
    ):
        want = [f"{prefix}{i:06d}" for i in range(n)]
        ids = root = table(prefix, n, dataset)
        if render_first:
            assert list(root) == want
        for lo, hi, step in chain:
            ids, want = ids[lo:hi:step], want[lo:hi:step]
            assert isinstance(ids, IdColumn) and ids.table is root.table and isinstance(ids.rows, range)
        # First pass reads by length, index and slice only, which renders nothing; iterating then
        # renders a generated table, and the second pass reads the same column rendered.
        for rendered in (render_first or dataset, True):
            assert len(ids) == len(want)
            for index in range(-len(want) - 2, len(want) + 2):
                assert outcome(lambda: ids[index]) == outcome(lambda: want[index])
            assert by_index(ids[probe[0] : probe[1]]) == want[probe[0] : probe[1]]
            assert (root.table.names is not None) == rendered
            assert list(ids) == want
        assert list(root.table.names) == [f"{prefix}{i:06d}" for i in range(n)]

    def test_a_rendered_column_hands_out_lists_of_the_one_rendering(self):
        root = generated("t-High-", 6)
        early = root[1:5]  # cut before anything rendered
        assert isinstance(early, IdColumn) and root.table.names is None
        first = list(early)
        # One rendering: every later read hands out the same str objects.
        for again, once in zip([*early[:], *root[1:5], early[0]], [*first, *first, first[0]]):
            assert again is once

    def test_backward_slices_are_refused_not_misread(self):
        with pytest.raises(ValueError, match="forwards"):
            generated("d", 4)[::-1]

    def test_rows_outside_the_table_are_refused_at_construction(self):
        for rows in (range(13, 14), range(-1, 2), range(0, 4), np.array([0, 3]), np.array([2, -1])):
            with pytest.raises(ValueError, match=r"outside an id table of 3 rows"):
                IdColumn(IdTable("g1-", 3), rows)
        for rows in (range(0, 3), range(0, 3, 2), range(5, 5), np.array([2, 0, 1]), np.array([], dtype=np.int64)):
            assert list(IdColumn(IdTable("g1-", 3), rows)) == [f"g1-{i:06d}" for i in rows]

    def test_a_column_dies_with_its_last_reference(self):
        """A root that pointed at itself kept every plan's ids alive until the cyclic collector ran."""
        gc.collect()
        gc.disable()
        try:
            root = generated("d", 50)
            child = root[10:20]
            assert len(list(child)) == 10
            del root, child
            assert gc.collect() == 0
        finally:
            gc.enable()


STRIDES = st.sampled_from([None, 1, 2, 3])
#: What DeviceFlow does to a segment's id column: a row range, a dropout mask, a join with another
#: range of the plan's table or of a second table.
column_ops = st.lists(
    st.one_of(
        st.tuples(st.just("slice"), BOUNDS, BOUNDS, STRIDES),
        st.tuples(st.just("mask"), st.integers(0, 2**14 - 1)),
        st.tuples(st.just("join"), st.booleans(), BOUNDS, BOUNDS, STRIDES),
    ),
    max_size=5,
)


class TestSelectionsEqualTheListOperations:
    @given(
        prefix=st.text(max_size=4),
        n=st.integers(0, 12),
        datasets=st.tuples(st.booleans(), st.booleans()),
        ops=column_ops,
        render_at=st.integers(0, 6),
        probe=st.tuples(BOUNDS, BOUNDS, STRIDES),
    )
    @settings(max_examples=400, deadline=None)
    def test_sliced_selected_and_joined_columns_read_like_the_rendered_list(
        self, prefix, n, datasets, ops, render_at, probe
    ):
        """Blocks cut, thinned and coalesced as DeviceFlow does; ``render_at`` past the ops renders after them."""
        roots = [table(prefix, n, datasets[0]), table(prefix + "b", 5, datasets[1])]
        block, rows = MessageBlock(task_id="t", round_index=0, device_ids=roots[0]), [(0, row) for row in range(n)]
        for step, (kind, *args) in enumerate(ops):
            if step == render_at:
                list(roots[0])
            before = block.device_ids
            if kind == "slice":
                block, rows = block[args[0] : args[1] : args[2]], rows[args[0] : args[1] : args[2]]
                if isinstance(before.rows, range):  # a contiguous cut holds no row array
                    assert isinstance(block.device_ids.rows, range)
            elif kind == "mask":
                flags = [bool(args[0] >> row & 1) for row in range(len(rows))]
                block, rows = block.compress(np.array(flags, dtype=bool)), list(itertools.compress(rows, flags))
            else:
                other, lo, hi, stride = args
                part = roots[other][lo:hi:stride]
                (block,) = MessageBlock.coalesce([block, MessageBlock(task_id="t", round_index=0, device_ids=part)])
                rows += [(other, row) for row in range(len(roots[other].rows))[lo:hi:stride]]
                if part.table is before.table:
                    assert block.device_ids.table is before.table
                else:  # only parts of different tables build a new table
                    assert block.device_ids.table not in (before.table, part.table)
            assert block.device_ids.table is before.table or kind == "join"
        ids = block.device_ids
        want = [f"{prefix}{'b' if other else ''}{row:06d}" for other, row in rows]
        assert isinstance(ids, IdColumn)
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
        # Every string handed out after rendering is its table's own object.
        list(roots[1])
        own = [roots[other].table.names[row] for other, row in rows]
        for read in (list(ids), by_index(ids), list(ids[:])):
            assert all(got is mine for got, mine in zip(read, own, strict=True))

    def test_a_join_across_roots_or_with_a_list_renders_a_list(self):
        """Parts of different tables join into a fresh table of their names."""
        first, second = generated("a", 3), generated("b", 2)
        across = first[1:].join([second])
        assert across == ["a000001", "a000002", "b000000", "b000001"]
        assert across.table not in (first.table, second.table) and isinstance(across.rows, range)
        (joined,) = MessageBlock.coalesce(
            [MessageBlock(task_id="t", round_index=0, device_ids=ids) for ids in (["x"], second)]
        )
        assert joined.device_ids == ["x", "b000000", "b000001"]

    def test_a_selection_of_an_unrendered_root_is_one_column_over_it(self):
        root = generated("d", 6)
        survivors = root[1:].take(np.flatnonzero([True, False, True, True, False]))
        assert survivors.table is root.table and survivors.rows.tolist() == [1, 3, 4]
        chunk = survivors.join([root[5:]])
        assert chunk.table is root.table and chunk.rows.tolist() == [1, 3, 4, 5] and root.table.names is None
        with pytest.raises(ValueError, match="forwards"):
            chunk[::-2]
        assert list(chunk[1:]) == ["d000003", "d000004", "d000005"]

    def test_adjacent_cuts_of_one_table_join_into_one_range(self):
        root = generated("d", 10)
        assert root[2:5].join([root[5:7], root[7:7], root[7:9]]).rows == range(2, 9)
        assert list(root[0:1].join([root[1:0]]).rows) == [0]  # an empty part starting where the range ends
        strided = root[::3][:2].join([root[6::3]])
        assert isinstance(strided.rows, range) and list(strided.rows) == [0, 3, 6, 9]
        gap = root[2:4].join([root[5:6]])  # a gap, or a change of stride, selects rows by array
        assert gap.rows.tolist() == [2, 3, 5] and root[0:4:2].join([root[5:7]]).rows.tolist() == [0, 2, 5, 6]
        assert root.table.names is None


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
                device_cpus=2, device_memory_gb=2,
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
        assert isinstance(devices.device_ids, IdColumn) and isinstance(devices.device_ids.rows, range)
        assert devices.device_ids.table.names is None


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
    calls = {"select": 0, "coalesce": 0}
    select, coalesce = dispatcher.select, MessageBlock.coalesce

    def counted_select(segment, keep):
        calls["select"] += 1
        return select(segment, keep)

    def counted_coalesce(segments):
        joined = coalesce(segments)
        calls["coalesce"] += len(segments) - len(joined)
        return joined

    monkeypatch.setattr(dispatcher, "select", counted_select)
    monkeypatch.setattr(MessageBlock, "coalesce", staticmethod(counted_coalesce))
    _, columns = run_time_only_task(monkeypatch, strategy=strategy())
    assert calls["select"] > 0 and calls["coalesce"] > 0  # dropout thinned segments, chunks joined parts
    for devices in columns:
        assert isinstance(devices.device_ids, IdColumn) and isinstance(devices.device_ids.rows, range)
        assert devices.device_ids.table.names is None


def test_behind_a_lossy_channel_each_plan_renders_once_for_all_its_rounds(monkeypatch):
    tracer = Tracer()
    spec, columns = run_time_only_task(monkeypatch, channel=ChannelModel(loss_prob=0.3, dup_prob=0.2), tracer=tracer)
    (table,) = {devices.device_ids.table for devices in columns}
    assert table.names == [f"{spec.task_id}-High-{i:06d}" for i in range(40)]
    # Three rounds of uploads, one str object per device: nothing re-rendered an id.
    uploads = {}
    for _, device_id, *_ in tracer.uploads:
        uploads.setdefault(device_id, []).append(device_id)
    assert len(uploads) == 40 and all(len(seen) == 3 for seen in uploads.values())
    rendered = {device_id: device_id for device_id in table.names}
    for device_id, seen in uploads.items():
        assert all(one is rendered[device_id] for one in seen)
