"""Tests for DeviceFlow's sorter, shelf, dispatcher and strategies, and for a flow round's close."""

from itertools import accumulate, groupby
from unittest.mock import patch

import numpy as np
import pytest
from helpers import one_row
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference.deviceflow_reference import (
    Message,
    ReferenceDeviceFlow,
    ReferenceRealTimeAccumulated,
    ReferenceTimeInterval,
    ReferenceTimePoints,
)
from reference.sampler_reference import schedule_recurring

from repro import GradeRequirement, PlatformConfig, SimDC, TaskSpec, TaskState
from repro.cluster import NodeSpec
from repro.cluster.rounds import IdColumn, IdTable
from repro.deviceflow import (
    DeviceFlow,
    Dispatcher,
    MessageBlock,
    RealTimeAccumulatedStrategy,
    Shelf,
    TimeIntervalStrategy,
    TimePoint,
    TimePointStrategy,
    right_tailed_normal,
)
from repro.deviceflow.messages import Segment, select
from repro.deviceflow.shelf import SegmentQueue
from repro.scheduler.task_runner import TaskRunner
from repro.simkernel import EventQueue, RandomStreams, Signal, Simulator


def msg(task="t1", device="d0", round_index=1, n_samples=5):
    """One device's message: a block of one row."""
    return one_row(
        device,
        task_id=task,
        round_index=round_index,
        size_bytes=1024,
        n_samples=n_samples,
    )


def ref_msg(task="t1", device="d0", round_index=1):
    """The same message as the per-message oracle's record."""
    return Message(
        task_id=task, device_id=device, round_index=round_index,
        payload_ref=f"{task}/{device}/{round_index}", size_bytes=1024, n_samples=5,
    )


class TestMessage:
    def test_validation(self):
        with pytest.raises(ValueError):
            msg(task="")
        with pytest.raises(ValueError):
            msg(n_samples=0)
        with pytest.raises(ValueError):
            MessageBlock(task_id="t", round_index=1, device_ids=["d"], size_bytes=-1)


class TestShelfAndSorter:
    def test_shelf_fifo(self):
        shelf = Shelf("t1", Simulator())
        first, second = msg(device="a"), msg(device="b")
        shelf.store(first)
        shelf.store(second)
        assert shelf.peek_oldest().device_ids == first.device_ids == ["a"]
        assert [m.device_ids for m in shelf.take(1)] == [["a"]]
        assert [m.device_ids for m in shelf.take_all()] == [["b"]]
        assert len(shelf) == 0
        assert shelf.total_stored == 2

    def test_shelf_rejects_foreign_task(self):
        shelf = Shelf("t1", Simulator())
        with pytest.raises(ValueError):
            shelf.store(msg(task="t2"))

    def test_sorter_routes_by_task(self):
        # The Sorter is DeviceFlow.submit_block's task-id lookup: each block lands on its task's shelf.
        flow = DeviceFlow(Simulator(), RandomStreams(0))
        for task in ("t1", "t2"):
            flow.register_task(task, TimePointStrategy([TimePoint(1.0, 1)]), lambda segment: None)
        assert [flow.submit_block(msg(task=task)) for task in ("t1", "t2", "t2")] == [1, 1, 1]
        assert [len(flow.dispatcher_for(task).shelf) for task in ("t1", "t2")] == [1, 2]
        assert flow.task_ids == ["t1", "t2"]

    def test_sorter_unknown_task(self):
        flow = DeviceFlow(Simulator(), RandomStreams(0))
        with pytest.raises(KeyError, match="'ghost' is not registered"):
            flow.submit_block(msg(task="ghost"))

    def test_sorter_duplicate_shelf(self):
        flow = DeviceFlow(Simulator(), RandomStreams(0))
        flow.register_task("t1", TimePointStrategy([TimePoint(1.0, 1)]), lambda segment: None)
        with pytest.raises(ValueError, match="already registered"):
            flow.register_task("t1", TimePointStrategy([TimePoint(1.0, 1)]), lambda segment: None)


def build_flow(strategy, capacity=700.0, seed=0):
    sim = Simulator()
    flow = DeviceFlow(sim, streams=RandomStreams(seed), capacity_per_second=capacity)
    inbox = []


    def downstream(segment):
        # One inbox entry per delivered message (row), whatever the segment size.
        inbox.extend((sim.now, segment[row : row + 1]) for row in range(len(segment)))

    flow.register_task("t1", strategy, downstream)
    return sim, flow, inbox


class TestRealTimeAccumulated:
    def test_threshold_one_is_passthrough(self):
        sim, flow, inbox = build_flow(RealTimeAccumulatedStrategy([1]))
        flow.round_started("t1", 1)
        for i in range(5):
            flow.submit_block(msg(device=f"d{i}"))
        sim.run()
        assert len(inbox) == 5

    def test_threshold_sequence_cycles(self):
        """§VI-C2: a [20, 100, 50] sequence cycles through batch sizes."""
        sim, flow, inbox = build_flow(RealTimeAccumulatedStrategy([2, 3]), capacity=1e9)
        flow.round_started("t1", 1)
        dispatcher = flow.dispatcher_for("t1")
        for i in range(10):
            flow.submit_block(msg(device=f"d{i}"))
        sim.run()
        batch_sizes = [count for _, count in dispatcher.dispatch_log]
        assert batch_sizes == [2, 3, 2, 3]

    def test_flush_on_round_complete(self):
        sim, flow, inbox = build_flow(RealTimeAccumulatedStrategy([10]))
        flow.round_started("t1", 1)
        for i in range(4):
            flow.submit_block(msg(device=f"d{i}"))
        sim.run()
        assert len(inbox) == 0  # below threshold
        flow.round_completed("t1", 1)
        sim.run()
        assert len(inbox) == 4

    def test_dropout_probability(self):
        strategy = RealTimeAccumulatedStrategy([1], failure_prob=0.5)
        sim, flow, inbox = build_flow(strategy, seed=3)
        flow.round_started("t1", 1)
        for i in range(400):
            flow.submit_block(msg(device=f"d{i}"))
        sim.run()
        stats = flow.stats("t1")
        assert stats.dropped_failure > 120
        assert stats.delivered == 400 - stats.dropped_failure
        assert len(inbox) == stats.delivered

    def test_validation(self):
        with pytest.raises(ValueError):
            RealTimeAccumulatedStrategy([])
        with pytest.raises(ValueError):
            RealTimeAccumulatedStrategy([0])
        with pytest.raises(ValueError):
            RealTimeAccumulatedStrategy([1], failure_prob=1.5)


class TestRateLimiting:
    def test_burst_spreads_over_time(self):
        """Fig. 10(b): a point burst arrives over subsequent instants."""
        sim, flow, inbox = build_flow(RealTimeAccumulatedStrategy([1400]), capacity=700.0)
        flow.round_started("t1", 1)
        for i in range(1400):
            flow.submit_block(msg(device=f"d{i}"))
        sim.run()
        arrival_times = [t for t, _ in inbox]
        assert len(inbox) == 1400
        # 1400 messages at 700 msg/s -> spread over ~2 s.
        assert max(arrival_times) - min(arrival_times) == pytest.approx(2.0, abs=0.2)

    def test_dispatcher_idle_signal(self):
        sim, flow, _ = build_flow(RealTimeAccumulatedStrategy([1]), capacity=10.0)
        dispatcher = flow.dispatcher_for("t1")
        flow.round_started("t1", 1)
        assert dispatcher.idle
        flow.submit_block(msg())
        assert not dispatcher.idle
        sim.run(until=0.05)  # the one message is in flight for 0.1 s
        assert not dispatcher.idle
        sim.run()
        assert dispatcher.idle and flow.stats("t1").delivered == 1
        flow.submit_block(msg(device="d1"))  # a second busy period starts from the flag
        assert not dispatcher.idle
        sim.run()
        assert dispatcher.idle and flow.stats("t1").delivered == 2


class TestTimePointStrategy:
    def test_relative_points_fire_after_round_end(self):
        points = [TimePoint(10.0, 2), TimePoint(30.0, 2)]
        sim, flow, inbox = build_flow(TimePointStrategy(points), capacity=1e9)
        flow.round_started("t1", 1)
        for i in range(4):
            flow.submit_block(msg(device=f"d{i}"))
        sim.run()
        flow.round_completed("t1", 1)
        end = sim.now
        sim.run()
        times = sorted(t for t, _ in inbox)
        assert len(times) == 4
        assert times[0] == pytest.approx(end + 10.0, abs=0.1)
        assert times[-1] == pytest.approx(end + 30.0, abs=0.1)

    def test_absolute_points(self):
        points = [TimePoint(50.0, 5)]
        sim, flow, inbox = build_flow(TimePointStrategy(points, relative=False), capacity=1e9)
        flow.round_started("t1", 1)
        for i in range(5):
            flow.submit_block(msg(device=f"d{i}"))
        flow.round_completed("t1", 1)
        sim.run()
        assert all(t == pytest.approx(50.0, abs=0.1) for t, _ in inbox)

    def test_point_discard_dropout(self):
        points = [TimePoint(1.0, 10, discard_count=4)]
        sim, flow, inbox = build_flow(TimePointStrategy(points), seed=1)
        flow.round_started("t1", 1)
        for i in range(10):
            flow.submit_block(msg(device=f"d{i}"))
        flow.round_completed("t1", 1)
        sim.run()
        assert len(inbox) == 6
        assert flow.stats("t1").dropped_discard == 4

    def test_point_does_not_over_take(self):
        points = [TimePoint(1.0, 100)]
        sim, flow, inbox = build_flow(TimePointStrategy(points))
        flow.round_started("t1", 1)
        for i in range(3):
            flow.submit_block(msg(device=f"d{i}"))
        flow.round_completed("t1", 1)
        sim.run()
        assert len(inbox) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TimePointStrategy([])
        with pytest.raises(ValueError):
            TimePointStrategy([TimePoint(-5.0, 1)])
        with pytest.raises(ValueError):
            TimePoint(1.0, 0)


class TestTimeIntervalStrategy:
    def test_dispatch_follows_curve(self):
        """Fig. 10(c): realised sends track the right-tailed normal."""
        curve = right_tailed_normal(1.0)
        strategy = TimeIntervalStrategy(curve, interval_seconds=60.0)
        sim, flow, inbox = build_flow(strategy, capacity=700.0)
        flow.round_started("t1", 1)
        for i in range(10_000):
            flow.submit_block(msg(device=f"d{i}"))
        flow.round_completed("t1", 1)
        base = sim.now
        sim.run()
        assert len(inbox) == 10_000
        # Early-window arrivals dominate for a right-tailed curve.
        early = sum(1 for t, _ in inbox if t - base < 20.0)
        assert early > 7_000
        assert strategy.last_schedule  # schedule retained for inspection

    def test_interval_dropout(self):
        curve = right_tailed_normal(1.0)
        strategy = TimeIntervalStrategy(curve, 30.0, failure_prob=0.3)
        sim, flow, inbox = build_flow(strategy, seed=2)
        flow.round_started("t1", 1)
        for i in range(1000):
            flow.submit_block(msg(device=f"d{i}"))
        flow.round_completed("t1", 1)
        sim.run()
        assert 550 < len(inbox) < 850

    def test_empty_round_no_dispatch(self):
        strategy = TimeIntervalStrategy(right_tailed_normal(1.0), 30.0)
        sim, flow, inbox = build_flow(strategy)
        flow.round_started("t1", 1)
        flow.round_completed("t1", 1)
        sim.run()
        assert inbox == []

    def test_validation(self):
        curve = right_tailed_normal(1.0)
        with pytest.raises(ValueError):
            TimeIntervalStrategy(curve, -1.0)
        with pytest.raises(ValueError):
            TimeIntervalStrategy(curve, 10.0, relative=False)  # needs start_time
        with pytest.raises(ValueError):
            TimeIntervalStrategy(curve, 10.0, failure_prob=2.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"interval_seconds": float("nan")}, "interval_seconds"),
            ({"interval_seconds": float("inf")}, "interval_seconds"),
            ({"tick_width": 0.0}, "tick_width"),
            ({"tick_width": -1.0}, "tick_width"),
            ({"tick_width": float("nan")}, "tick_width"),
            ({"relative": False, "start_time": float("nan")}, "start_time"),
        ],
    )
    def test_non_finite_numbers_rejected_at_construction(self, kwargs, field):
        # Each used to pass construction and fail only at round completion
        # (float NaN to integer, tick_width must be positive, cannot schedule at nan).
        kwargs = {"interval_seconds": 10.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            TimeIntervalStrategy(right_tailed_normal(1.0), **kwargs)


class TestDeviceFlowFacade:
    def test_task_isolation(self):
        sim = Simulator()
        flow = DeviceFlow(sim, streams=RandomStreams(0))
        inbox1, inbox2 = [], []
        flow.register_task("t1", RealTimeAccumulatedStrategy([1]), inbox1.append)
        flow.register_task("t2", RealTimeAccumulatedStrategy([100]), inbox2.append)
        flow.round_started("t1", 1)
        flow.round_started("t2", 1)
        flow.submit_block(msg(task="t1"))
        flow.submit_block(msg(task="t2"))
        sim.run()
        assert len(inbox1) == 1
        assert len(inbox2) == 0  # t2 still accumulating

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        flow = DeviceFlow(sim, RandomStreams(0))
        flow.register_task("t1", RealTimeAccumulatedStrategy([1]), lambda m: None)
        with pytest.raises(ValueError):
            flow.register_task("t1", RealTimeAccumulatedStrategy([1]), lambda m: None)

    def test_unknown_task_rejected(self):
        sim = Simulator()
        flow = DeviceFlow(sim, RandomStreams(0))
        with pytest.raises(KeyError):
            flow.submit_block(msg(task="ghost"))
        with pytest.raises(KeyError):
            flow.round_started("ghost", 1)

    def test_unregister_requires_empty_shelf(self):
        sim = Simulator()
        flow = DeviceFlow(sim, RandomStreams(0))
        flow.register_task("t1", RealTimeAccumulatedStrategy([100]), lambda m: None)
        flow.round_started("t1", 1)
        flow.submit_block(msg())
        with pytest.raises(RuntimeError):
            flow.unregister_task("t1")
        flow.round_completed("t1", 1)
        sim.run()
        flow.unregister_task("t1")
        assert flow.task_ids == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_capacity_must_be_finite_and_positive(self, bad):
        # A NaN / inf capacity used to be accepted and crash the sender on int(round(...)).
        with pytest.raises(ValueError, match="^capacity_per_second must be a finite number > 0"):
            DeviceFlow(Simulator(), RandomStreams(0), capacity_per_second=bad)
        with pytest.raises(ValueError, match="^capacity_per_second must be a finite number > 0"):
            Dispatcher(
                Simulator(), Shelf("t1", Simulator()), RealTimeAccumulatedStrategy([1]), lambda segment: None,
                capacity_per_second=bad, rng=np.random.default_rng(0),
            )
        flow = DeviceFlow(Simulator(), RandomStreams(0))
        with pytest.raises(ValueError, match="^scale must be a finite number > 0"):
            flow.set_capacity_scale(bad)
        assert flow.capacity_scale == 1.0

    def test_stats_accounting_identity(self):
        strategy = RealTimeAccumulatedStrategy([3], failure_prob=0.2)
        sim, flow, inbox = build_flow(strategy, seed=7)
        flow.round_started("t1", 1)
        for i in range(30):
            flow.submit_block(msg(device=f"d{i}"))
        flow.round_completed("t1", 1)
        sim.run()
        stats = flow.stats("t1")
        assert stats.received == 30
        assert stats.shelved == 0
        assert stats.delivered + stats.dropped == 30
        assert len(inbox) == stats.delivered


    def test_unregister_drops_all_per_task_state(self):
        """A soak of short-lived tasks must not grow the controller."""
        sim = Simulator()
        flow = DeviceFlow(sim, streams=RandomStreams(0))
        for i in range(100):
            task = f"t{i}"
            flow.register_task(task, RealTimeAccumulatedStrategy([3]), lambda m: None)
            flow.round_started(task, 1)
            flow.submit_block(msg(task=task))
            if i % 2:
                assert flow.force_unregister(task) == 1
            else:
                flow.round_completed(task, 1)
                sim.run()
                flow.unregister_task(task)
        assert flow.task_ids == []
        assert flow.task_ids == []
        assert flow._dispatchers == {}


# ----------------------------------------------------------------------
# block traffic == message-by-message traffic (the reference oracle)
# ----------------------------------------------------------------------
probabilities = st.sampled_from([0.0, 0.0, 0.15, 0.5, 1.0])
#: (time, rows, as_block): few distinct instants, so waves collide.
waves = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.03, 2.0, 7.5]),
        st.integers(min_value=0, max_value=90),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)
realtime = st.fixed_dictionaries(
    {
        "kind": st.just("realtime"),
        "thresholds": st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
        "failure_prob": probabilities,
        "flush": st.booleans(),
    }
)
points = st.fixed_dictionaries(
    {
        "kind": st.just("points"),
        "points": st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.2, 1.0, 5.0]),
                st.integers(min_value=1, max_value=120),
                probabilities,
                st.integers(min_value=0, max_value=30),
            ),
            min_size=1,
            max_size=4,
        ),
    }
)
interval = st.fixed_dictionaries(
    {
        "kind": st.just("interval"),
        "interval_s": st.sampled_from([3.0, 20.0]),
        "failure_prob": probabilities,
        "discard_per_tick": st.integers(min_value=0, max_value=3),
    }
)


def build_strategies(recipe):
    """The production strategy and its per-message reference twin."""
    if recipe["kind"] == "realtime":
        args = (recipe["thresholds"], recipe["failure_prob"], recipe["flush"])
        return RealTimeAccumulatedStrategy(*args), ReferenceRealTimeAccumulated(*args)
    if recipe["kind"] == "points":
        time_points = [TimePoint(*point) for point in recipe["points"]]
        return TimePointStrategy(time_points), ReferenceTimePoints(time_points)
    curve = right_tailed_normal(1.0)
    kwargs = {
        "failure_prob": recipe["failure_prob"],
        "discard_per_tick": recipe["discard_per_tick"],
    }
    return (
        TimeIntervalStrategy(curve, recipe["interval_s"], **kwargs),
        ReferenceTimeInterval(curve, recipe["interval_s"], **kwargs),
    )


def wave_ids(round_index, wave, rows):
    """A wave's device ids, as a plain list."""
    return [f"r{round_index}w{wave}d{i}" for i in range(rows)]


def generated_ids(script):
    """Wave ids cut from one generated column per round, as a time-only plan's are."""
    starts = list(accumulate((rows for _, rows, _ in script), initial=0))
    roots = {}

    def ids_of(round_index, wave, rows):
        if round_index not in roots:
            roots[round_index] = IdColumn(IdTable(f"r{round_index}-", starts[-1]), range(starts[-1]))
        return roots[round_index][starts[wave] : starts[wave] + rows]

    return ids_of


def row_values(round_index, wave, row, numeric):
    """What a submitted row carries: distinct ``n_samples`` / ``finished_at`` (and update) values.

    Returns ``(n_samples, finished_at, weights, bias)``, a function of the
    row's place in the script only, so production and the oracle submit the
    same values without reading an id.
    """
    key = 10_000 * round_index + 100 * wave + row
    if not numeric:
        return key + 1, key / 8.0, None, None
    return key + 1, key / 8.0, (key * 0.5, -key * 0.25), key * 0.125


def wave_block(round_index, wave, ids, rows, size_bytes, numeric, first=0):
    """Rows ``first .. first + rows`` of a wave as a block carrying their :func:`row_values` columns."""
    values = [row_values(round_index, wave, first + row, numeric) for row in range(rows)]
    return MessageBlock(
        task_id="t", round_index=round_index, device_ids=ids, size_bytes=size_bytes,
        n_samples=np.array([value[0] for value in values], dtype=np.int64),
        finished_at=np.array([value[1] for value in values], dtype=float),
        update_weights=np.array([value[2] for value in values], dtype=float).reshape(rows, 2) if numeric else None,
        update_biases=np.array([value[3] for value in values], dtype=float) if numeric else None,
    )


def delivered_rows(time, segment):
    """``(time, device, n_samples, finished_at, weights, bias)`` per row of a delivered block."""
    weights, biases = segment.update_weights, segment.update_biases
    return [
        (
            time,
            device,
            int(segment.n_samples[row]),
            float(segment.finished_at[row]),
            None if weights is None else tuple(weights[row].tolist()),
            None if biases is None else float(biases[row]),
        )
        for row, device in enumerate(segment.device_ids)
    ]


def drive_flow(flow, strategy, script, capacity_event, discard_at, per_message, numeric=False, ids_of=wave_ids):
    """Replay ``script`` (two rounds) into ``flow``; return everything observable.

    ``per_message`` feeds the per-message oracle one ``Message`` a device;
    production gets each wave as one block or as one block per row.  Every
    row carries distinct column values (:func:`row_values`; update arrays
    too when ``numeric``), and ``delivered`` lists each delivered row with
    the values it arrived with, so a selection that picked the wrong rows of
    a column shows.  Delivered columns are read only once the run is over,
    so a generated id column (``ids_of``) stays unrendered through the
    whole flow.
    """
    sim = flow.sim
    delivered = []

    def downstream(segment):
        delivered.append((sim.now, segment))

    flow.register_task("t", strategy, downstream)
    dispatcher = flow.dispatcher_for("t")

    def arrive(round_index, wave, rows, as_block):
        ids = ids_of(round_index, wave, rows)
        if per_message:
            for row, device in enumerate(ids):
                n_samples, finished_at, weights, bias = row_values(round_index, wave, row, numeric)
                flow.submit(
                    Message(
                        task_id="t", device_id=device, round_index=round_index, payload_ref=device,
                        size_bytes=1024, n_samples=n_samples,
                        metadata={"finished_at": finished_at, "weights": weights, "bias": bias},
                    )
                )
        elif as_block:
            flow.submit_block(wave_block(round_index, wave, ids, rows, 64, numeric))
        else:
            for row in range(rows):
                flow.submit_block(wave_block(round_index, wave, [ids[row]], 1, 1024, numeric, first=row))

    for round_index, offset in ((1, 0.0), (2, 40.0)):
        sim.schedule_at(offset, flow.round_started, "t", round_index)
        for wave, (time, rows, as_block) in enumerate(script):
            sim.schedule_at(offset + time, arrive, round_index, wave, rows, as_block)
        sim.schedule_at(offset + 8.0, flow.round_completed, "t", round_index)
    sim.schedule_at(capacity_event[0], flow.set_capacity_scale, capacity_event[1])
    if discard_at is not None:
        sim.schedule_at(discard_at, flow.discard_shelved, "t")
    sim.run()
    if per_message:
        rows = [
            (time, m.device_id, m.n_samples, m.metadata["finished_at"], m.metadata["weights"], m.metadata["bias"])
            for time, m in delivered
        ]
    else:
        rows = [row for time, segment in delivered for row in delivered_rows(time, segment)]
    return {
        "dispatch_log": dispatcher.dispatch_log,
        "delivery_log": dispatcher.delivery_log,
        "delivered": rows,
        "stats": flow.stats("t"),
        "rng": dispatcher.rng.bit_generator.state,
        "idle": dispatcher.idle,
        "end": sim.now,
    }


flow_cases = {
    "recipe": st.one_of(realtime, points, interval),
    "script": waves,
    "capacity": st.sampled_from([35.0, 700.0, 1e6]),
    "capacity_event": st.tuples(st.sampled_from([0.7, 1.0, 9.0, 41.0]), st.sampled_from([0.2, 1.0, 3.0])),
    "discard_at": st.sampled_from([None, None, 1.0, 8.5, 47.0]),
    "seed": st.integers(min_value=0, max_value=5),
    "numeric": st.booleans(),
}


class TestBlocksEqualReference:
    @given(**flow_cases)
    # The sender fixes its chunk size when it wakes, one event after the
    # enqueue: here the capacity drops (35 -> 7 msg/s) between the two, so
    # the chunks are one row, not two.
    @example(
        recipe={"kind": "realtime", "thresholds": [1], "failure_prob": 0.0, "flush": False},
        script=[(1.0, 2, True)],
        capacity=35.0,
        capacity_event=(1.0, 0.2),
        discard_at=None,
        seed=0,
        numeric=False,
    )
    @settings(max_examples=120, deadline=None)
    def test_mixed_block_and_scalar_traffic_equals_per_message_oracle(
        self, recipe, script, capacity, capacity_event, discard_at, seed, numeric
    ):
        production, reference = build_strategies(recipe)
        got = drive_flow(
            DeviceFlow(Simulator(), RandomStreams(seed), capacity_per_second=capacity),
            production, script, capacity_event, discard_at, per_message=False, numeric=numeric,
        )
        want = drive_flow(
            ReferenceDeviceFlow(Simulator(), RandomStreams(seed), capacity_per_second=capacity),
            reference, script, capacity_event, discard_at, per_message=True, numeric=numeric,
        )
        assert got == want
        stats = got["stats"]
        assert stats.received == stats.delivered + stats.dropped + stats.shelved

    @given(**flow_cases)
    @settings(max_examples=80, deadline=None)
    def test_waves_cut_from_one_generated_column_deliver_the_oracle_ids(
        self, recipe, script, capacity, capacity_event, discard_at, seed, numeric
    ):
        """Dropout survivors and delivery chunks select rows of the plan's column: same ids and columns delivered."""
        production, reference = build_strategies(recipe)
        got = drive_flow(
            DeviceFlow(Simulator(), RandomStreams(seed), capacity_per_second=capacity),
            production, script, capacity_event, discard_at, per_message=False, numeric=numeric,
            ids_of=generated_ids(script),
        )
        want = drive_flow(
            ReferenceDeviceFlow(Simulator(), RandomStreams(seed), capacity_per_second=capacity),
            reference, script, capacity_event, discard_at, per_message=True, numeric=numeric,
            ids_of=generated_ids(script),
        )
        assert got == want

    def test_burst_over_k_thresholds_is_one_dispatch(self):
        """One take, one draw, k log rows, one enqueue — and the oracle's numbers."""
        sim, flow, inbox = build_flow(RealTimeAccumulatedStrategy([2, 3], failure_prob=0.4), seed=4)
        dispatcher = flow.dispatcher_for("t1")
        calls = []
        original = dispatcher.dispatch
        dispatcher.dispatch = lambda *a, **k: calls.append(k.get("group_sizes")) or original(*a, **k)
        flow.round_started("t1", 1)
        ids = [f"d{i}" for i in range(11)]
        flow.submit_block(MessageBlock(task_id="t1", round_index=1, device_ids=ids))
        assert calls == [[2, 3, 2, 3]]  # 10 of 11 rows; one stays shelved
        assert flow.stats("t1").shelved == 1

        ref_sim = Simulator()
        reference = ReferenceDeviceFlow(ref_sim, RandomStreams(4))
        reference.register_task("t1", ReferenceRealTimeAccumulated([2, 3], 0.4), lambda m: None)
        reference.round_started("t1", 1)
        for device in ids:
            reference.submit(ref_msg(device=device))
        assert dispatcher.dispatch_log == reference.dispatcher_for("t1").dispatch_log
        assert (
            dispatcher.rng.bit_generator.state
            == reference.dispatcher_for("t1").rng.bit_generator.state
        )

    def test_grouped_dispatch_rejects_discard_and_bad_sizes(self):
        sim, flow, _ = build_flow(RealTimeAccumulatedStrategy([100]))
        dispatcher = flow.dispatcher_for("t1")
        batch = [msg(device="a"), msg(device="b")]
        with pytest.raises(ValueError, match="one dispatch group"):
            dispatcher.dispatch(batch, discard_count=1, group_sizes=[1, 1])
        with pytest.raises(ValueError, match="group_sizes cover"):
            dispatcher.dispatch(batch, group_sizes=[1])
        # Entries must each be an int >= 1, even when they sum to the batch.
        five = [MessageBlock(task_id="t1", round_index=1, device_ids=[f"d{i}" for i in range(5)])]
        for bad in ([-2, 7], [0, 5], [2.5, 2.5], [np.int64(5)], []):
            with pytest.raises(ValueError, match="group_sizes"):
                dispatcher.dispatch(five, group_sizes=bad)
        assert dispatcher.dispatch_log == [] and dispatcher.dispatched == 0
        assert len(dispatcher.shelf) == 0 and dispatcher.idle


class TestSegments:
    def block(self, n=6, **kwargs):
        return MessageBlock(
            task_id="t1", round_index=1, device_ids=[f"d{i}" for i in range(n)],
            n_samples=np.arange(1, n + 1), **kwargs,
        )

    def test_shelf_take_splits_blocks_on_row_boundaries(self):
        shelf = Shelf("t1", Simulator())
        block = self.block(6)
        shelf.store(msg(device="m0"))
        shelf.store(block)
        shelf.store(msg(device="m1"))
        assert len(shelf) == 8 and shelf.total_stored == 8
        first = shelf.take(3)  # the message + the first two block rows
        assert [list(s.device_ids) for s in first] == [["m0"], ["d0", "d1"]]
        assert first[1].parent is block and first[1].index == range(0, 2)
        assert shelf.peek_oldest().device_ids == ["d2"]
        rest = shelf.take_all()
        assert [list(s.device_ids) for s in rest] == [["d2", "d3", "d4", "d5"], ["m1"]]
        assert rest[0].parent is block and rest[0].index == range(2, 6)
        assert rest[0].n_samples.tolist() == [3, 4, 5, 6]
        assert len(shelf) == 0

    def test_row_ranges_are_views_and_compress_copies_survivors(self):
        weights = np.arange(12, dtype=float).reshape(6, 2)
        block = self.block(6, update_weights=weights, update_biases=np.zeros(6))
        view = Segment(block, range(2, 5))
        assert np.shares_memory(view.gather().update_weights, weights)
        assert view.device_ids == ["d2", "d3", "d4"] and view.n_samples.sum() == 12
        kept = select(view, np.array([True, False, True]))
        assert kept.parent is block and kept.index.tolist() == [2, 4]
        gathered = kept.gather()
        assert gathered.device_ids == ["d2", "d4"] and not np.shares_memory(gathered.update_weights, weights)
        assert gathered.update_weights.tolist() == [[4.0, 5.0], [8.0, 9.0]]
        assert gathered.n_samples.tolist() == [3, 5] and gathered.finished_at is None
        eager = block[2:5].compress(np.array([True, False, True]))  # the block-level selection copies the same rows
        assert eager.device_ids == gathered.device_ids and eager.update_weights.tolist() == [[4.0, 5.0], [8.0, 9.0]]
        assert block.parent is block and block.index == range(6) and block.gather() is block
        with pytest.raises(TypeError, match=r"one row is block\[i : i \+ 1\]"):
            block[0]

    def test_coalesce_joins_only_adjacent_compatible_blocks(self, monkeypatch):
        block = self.block(6)
        other_round = MessageBlock(task_id="t1", round_index=2, device_ids=["x"])
        scalar = msg(device="m")
        joins = []
        join = MessageBlock._join
        monkeypatch.setattr(MessageBlock, "_join", staticmethod(lambda run: joins.append(len(run)) or join(run)))
        joined = MessageBlock.coalesce(
            [Segment(block, range(0, 2)), Segment(block, range(2, 3)), scalar, Segment(block, range(3, 6)), other_round]
        )
        assert [list(s.device_ids) for s in joined] == [["d0", "d1", "d2"], ["m"], ["d3", "d4", "d5"], ["x"]]
        assert joined[1] is scalar  # another payload size: not joinable
        assert joined[0].n_samples.tolist() == [1, 2, 3]
        assert np.shares_memory(joined[0].n_samples, block.n_samples)  # adjacent ranges: one view
        assert joins == [1, 1, 1, 1]  # nothing to join: each run is one parent's
        # One-row uploads of one parent gather with one index per column, in FIFO order.
        (chunk,) = MessageBlock.coalesce([Segment(block, range(row, row + 1)) for row in (4, 1, 2, 5)])
        assert chunk.device_ids == ["d4", "d1", "d2", "d5"] and chunk.n_samples.tolist() == [5, 2, 3, 6]
        # Blocks of different parents are joined.
        rows = [msg(device=f"u{i}") for i in range(4)]
        (chunk,) = MessageBlock.coalesce(rows)
        assert chunk.device_ids == ["u0", "u1", "u2", "u3"] and chunk.n_samples.sum() == 20

    @given(
        parents=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=12),  # rows
                st.sampled_from(["list", "generated", "shared"]),  # id table
                st.booleans(),  # numeric
                st.booleans(),  # time column
                st.sampled_from(["High", "High", "Low"]),
            ),
            min_size=1,
            max_size=3,
        ),
        picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 11), st.integers(1, 12), st.integers(1, 3),
                                 st.booleans(), st.randoms(use_true_random=False)), min_size=1, max_size=6),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("take"), st.integers(0, 40)),
                st.tuples(st.just("compress"), st.lists(st.booleans(), min_size=72, max_size=72)),  # 6 picks x 12 rows
                st.tuples(st.just("coalesce")),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_segment_ops_equal_eager_cuts_and_joins(self, parents, picks, ops):
        """take / compress / coalesce over segments of 1-3 parents equal the eager ``block[lo:hi]`` / ``_join``."""
        shared = IdTable("s-", 40)
        blocks = []
        for k, (n, ids, numeric, timed, grade) in enumerate(parents):
            if ids == "list":
                column = [f"p{k}-{i}" for i in range(n)]
            else:
                table = shared if ids == "shared" else IdTable(f"g{k}-", k * 13 + n)
                column = IdColumn(table, range(k * 13, k * 13 + n))
            blocks.append(MessageBlock(
                task_id="t", round_index=1, device_ids=column, grade=grade, size_bytes=8,
                n_samples=np.arange(100 * k + 1, 100 * k + n + 1),
                finished_at=np.arange(n) + 0.5 * k if timed else None,
                update_weights=np.arange(2 * n, dtype=float).reshape(n, 2) + 1000 * k if numeric else None,
                update_biases=np.arange(n, dtype=float) - 1000 * k if numeric else None,
            ))
        # Production holds segments; the oracle the eager blocks they stand for.  A shelf holds no empty one.
        segments, eager = [], []
        for which, lo, length, step, as_index, rng in picks:
            parent = blocks[which % len(blocks)]
            lo = lo % parent.rows
            rows = range(lo, min(parent.rows, lo + length), step)
            if as_index:  # scattered rows, in any order
                index = [*rows]
                rng.shuffle(index)
                segments.append(Segment(parent, np.array(index, dtype=np.int64)))
                eager.append(MessageBlock._join([parent[i : i + 1] for i in index]))
            elif rows == range(parent.rows):
                segments.append(parent)
                eager.append(parent)
            else:
                segments.append(Segment(parent, rows))
                eager.append(parent[rows.start : rows.stop : rows.step])

        def columns(block):
            return (
                list(block.device_ids), block.grade, block.n_samples.tolist(),
                None if block.finished_at is None else block.finished_at.tolist(),
                None if block.update_weights is None else block.update_weights.tolist(),
                None if block.update_biases is None else block.update_biases.tolist(),
            )

        def rows_of(parts):
            return [row for part in parts for row in zip(*(
                [value] * len(part) if not isinstance(value, list) else value for value in columns(part.gather())
            ))]

        for op in ops:
            if op[0] == "take":  # split at a row count, as a shelf take does
                queue = SegmentQueue()
                queue.extend(segments, sum(segment.rows for segment in segments))
                segments = queue.take(op[1]) + queue.take_all()
                cut_eager, need = [], op[1]
                for block in eager:
                    head = min(need, block.rows)
                    need -= head
                    cut_eager += [part for part in (block[:head], block[head:]) if part.rows]
                eager = cut_eager
            elif op[0] == "compress":  # dropout survivors
                keep = np.array(op[1][: sum(segment.rows for segment in segments)], dtype=bool)
                segments, _ = Dispatcher._select(segments, keep) if len(keep) else ([], 0)
                starts = list(accumulate((block.rows for block in eager), initial=0))
                eager = [
                    block.compress(keep[lo:hi]) for block, lo, hi in zip(eager, starts, starts[1:]) if keep[lo:hi].any()
                ]
            else:
                segments = MessageBlock.coalesce(segments)
                eager = [MessageBlock._join(list(run)) for _, run in groupby(eager, key=MessageBlock._layout)]
                assert [columns(block) for block in segments] == [columns(block) for block in eager]
            assert rows_of(segments) == rows_of(eager)


# ----------------------------------------------------------------------
# a flow round's close: the drain, read on the 1-s lattice from completion
# ----------------------------------------------------------------------
def polled_deliveries(runner):
    """A round's drain as a 1-s recurring poll from completion on: the close before the settle hook."""
    drained = Signal(name=f"{runner.spec.task_id}.drain")

    def poll():
        try:
            if not runner.deviceflow.drained(runner.spec.task_id):
                return
        except Exception as exc:
            drained.fail(exc)
        else:
            drained.fire()
        tick.cancel()

    tick = schedule_recurring(runner.sim, 1.0, poll, first_at=runner.sim.now)
    return drained


def close_round(strategy, capacity, deadline_s=None, n_devices=6, rounds=1, await_deliveries=None):
    """Run one flow task on a small platform; the times its rounds completed, drained and closed.

    ``await_deliveries`` replaces ``TaskRunner._await_deliveries`` (the old poll).  Also returned:
    the times of the kernel events that fire a round's drain signal.
    """
    platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2, deviceflow_capacity=capacity))
    grade = GradeRequirement("High", n_devices, bundles=8, n_phones=1, device_cpus=2, device_memory_gb=2)
    # A fixed id: the dispatcher's dropout stream is named after it.
    spec = TaskSpec("t", [grade], rounds, deviceflow_strategy=strategy, deadline_s=deadline_s, task_id="t")
    platform.submit(spec, fixed_allocation={"High": n_devices})
    sim, flow = platform.sim, platform.deviceflow
    times = {"completed": [], "drained": [], "closed": [], "drain_events": []}
    round_completed, drained = flow.round_completed, DeviceFlow.drained
    await_deliveries = await_deliveries or TaskRunner._await_deliveries

    def completing(task_id, round_index):
        round_completed(task_id, round_index)
        times["completed"].append(sim.now)

    def reading(flow, task_id):
        done = drained(flow, task_id)
        if done and len(times["drained"]) < len(times["completed"]):  # a round's first read that holds
            times["drained"].append(sim.now)
        return done

    def awaiting(runner):
        signal = await_deliveries(runner)
        signal.subscribe(sim, lambda value, error: times["closed"].append(sim.now))
        return signal

    def pushing(queue, time, callback, args, seq=None):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Signal) and owner.name.endswith(".drain"):
            times["drain_events"].append(time)
        return push(queue, time, callback, args, seq)

    flow.round_completed = completing
    push = EventQueue.push
    with (
        patch.object(DeviceFlow, "drained", reading),
        patch.object(TaskRunner, "_await_deliveries", awaiting),
        patch.object(EventQueue, "push", pushing),
    ):
        platform.run_until_idle(max_time=1e7)
    assert platform.result(spec.task_id).state is TaskState.COMPLETED
    return times


def lattice(start, end):
    """``start, start + 1.0, start + 1.0 + 1.0, ...`` up to the first instant at or after ``end``."""
    instants = [start]
    while instants[-1] < end:
        instants.append(instants[-1] + 1.0)
    return instants


class TestRoundCloseLattice:
    """A flow round closes at the first instant of the 1-s lattice from its completion at or after the drain.

    The drain is read where it can newly hold (the dispatcher's settle hook),
    not polled: one kernel event per flow round fires the round's signal.
    """

    def test_a_drain_between_lattice_instants_closes_at_the_next_one(self):
        # Six rows at 10 a second drain 0.6 s after completion, as a poll read it.
        times = close_round(TimePointStrategy([TimePoint(0.0, 100)]), capacity=10.0)
        assert times["completed"] == [33.70398707999999]
        assert times["closed"] == [34.70398707999999] == times["drain_events"]
        assert lattice(times["completed"][0], times["drained"][0])[-1] == times["closed"][0] > times["drained"][0]

    def test_a_drain_on_a_lattice_instant_closes_on_it(self):
        # One row a second: the last chunk lands on completion + 1.0 summed six times.
        times = close_round(TimePointStrategy([TimePoint(0.0, 100)]), capacity=1.0)
        assert times["drained"] == times["closed"] == times["drain_events"] == [39.70398707999999]
        assert times["closed"][0] == lattice(times["completed"][0], times["drained"][0])[6]
        # The poll read it one tick later: its tick had been queued before the last chunk.
        polled = close_round(TimePointStrategy([TimePoint(0.0, 100)]), 1.0, await_deliveries=polled_deliveries)
        assert polled["closed"] == [40.70398707999999]

    def test_nothing_to_deliver_at_completion_closes_at_completion(self):
        times = close_round(RealTimeAccumulatedStrategy([1], failure_prob=1.0), capacity=10.0, rounds=2)
        assert times["drained"] == times["completed"] == times["closed"] == times["drain_events"]
        assert len(times["closed"]) == 2

    def test_a_deadline_discard_that_drains_closes_at_the_lattice_instant_after_it(self):
        # Nothing is dispatched before the deadline (9.55 + 30 s): its discard drains the flow.
        times = close_round(TimePointStrategy([TimePoint(20.0, 100)]), capacity=10.0, deadline_s=30.0)
        (completed,), (drained,), (closed,) = times["completed"], times["drained"], times["closed"]
        assert completed < drained < completed + 20.0
        assert closed == lattice(completed, drained)[-1] > drained
        assert times["drain_events"] == [closed]
        polled = close_round(TimePointStrategy([TimePoint(20.0, 100)]), 10.0, 30.0, await_deliveries=polled_deliveries)
        assert polled["closed"] == [closed]

    def test_the_settle_hook_runs_where_the_drain_can_newly_hold(self):
        sim = Simulator()
        flow = DeviceFlow(sim, RandomStreams(0), capacity_per_second=10.0)
        strategy = TimePointStrategy([TimePoint(0.0, 2), TimePoint(5.0, 1, failure_prob=1.0)])
        dispatcher = flow.register_task("t", strategy, lambda segment: None)
        calls = []
        dispatcher.settle = lambda: calls.append((sim.now, dispatcher.idle, flow.drained("t")))
        for device in ("a", "b", "c", "d"):
            flow.submit_block(msg(task="t", device=device))
        flow.round_completed("t", 1)
        sim.schedule_at(7.0, flow.discard_shelved, "t")
        sim.run()
        # The sender goes idle at 0.2 s; the failed point at 5 s enqueues nothing while idle; the discard drains.
        assert calls == [(0.2, True, False), (5.0, True, False), (7.0, True, True)]

    @given(
        recipe=st.one_of(realtime, points, interval),
        capacity=st.sampled_from([0.5, 1.0, 2.0, 10.0, 700.0]),
        deadline_s=st.sampled_from([30.0, 40.0, 55.0]),
        n_devices=st.sampled_from([3, 6, 8]),
    )
    @settings(max_examples=40, deadline=None)
    @example(recipe={"kind": "points", "points": [(0.0, 100, 0.0, 0)]}, capacity=10.0, deadline_s=55.0, n_devices=6)
    def test_round_closes_equal_the_poll_unless_the_drain_is_a_lattice_instant(
        self, recipe, capacity, deadline_s, n_devices
    ):
        def run(await_deliveries=None):
            strategy = build_strategies(recipe)[0]
            return close_round(strategy, capacity, deadline_s, n_devices, rounds=2, await_deliveries=await_deliveries)

        times, polled = run(), run(polled_deliveries)
        assert times["drain_events"] == times["closed"]
        rounds = zip(times["completed"], times["drained"], times["closed"], polled["closed"])
        for completed, drained, closed, was in rounds:
            assert closed == lattice(completed, drained)[-1]
            if closed != drained:
                assert closed == was
                continue
            # On a lattice instant the poll read it then or one tick later; later rounds start from there.
            assert was in (closed, closed + 1.0)
            if was != closed:
                break
