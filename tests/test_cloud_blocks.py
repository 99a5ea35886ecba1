"""Unit tests for the cloud delivery path: MessageBlock, submit_block and
receive_block — and the differential that holds all of
it, end to end through ``CloudIngestSink``, to the per-upload oracle.

The contract under test everywhere: however a round's rows are cut into
blocks — one block, any partition, one row per block — every cloud
operation is *observably equivalent* to the per-upload semantics kept in
``tests/reference/cloud_reference.py``: same counters, same reads, same
folded model bits.
"""

from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from helpers import CallbackSink
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.cloud_reference import (
    ReferenceAggregationService,
    ReferenceIngestSink,
    ReferenceStorage,
    ReferenceTracer,
    ReferenceTransportChannel,
    payload_ref,
)
from reference.deviceflow_reference import (
    Message,
    ReferenceDeviceFlow,
    ReferenceRealTimeAccumulated,
    ReferenceTimePoints,
)
from reference.tier_reference import materialize

from repro.cloud import (
    AggregationService,
    ChannelModel,
    CloudIngestSink,
    SampleThresholdTrigger,
    TransportChannel,
)
from repro.cloud.aggregation import AggregationTrigger
from repro.cluster.rounds import IdColumn, IdTable
from repro.deviceflow import DeviceFlow, MessageBlock, RealTimeAccumulatedStrategy, TimePoint, TimePointStrategy
from repro.ml.backends import SERVER_BACKEND
from repro.ml.fedavg import ModelUpdate
from repro.ml.model import LogisticRegressionModel
from repro.observability.tracing import Tracer, _per_device
from repro.simkernel import RandomStreams, Simulator


def make_update(device_id, dim=8, value=1.0, n_samples=10, round_index=1):
    return ModelUpdate(
        device_id=device_id,
        round_index=round_index,
        weights=np.full(dim, value),
        bias=float(value),
        n_samples=n_samples,
    )


# ----------------------------------------------------------------------
# MessageBlock
# ----------------------------------------------------------------------
class TestMessageBlock:
    def test_materializes_to_equivalent_scalar_messages(self):
        block = MessageBlock(
            task_id="t",
            round_index=3,
            device_ids=["a", "b"],
            grade="High",
            size_bytes=128,
            n_samples=np.array([5, 7]),
        )
        assert len(block) == 2
        assert block.total_bytes == 256
        assert block.n_samples.sum() == 12
        # One message is a block of one row: each row range carries exactly
        # what the per-message record of the oracle carries.
        messages = [
            Message(task_id="t", device_id=d, round_index=3, payload_ref=f"t/{d}/r3",
                    size_bytes=128, n_samples=n, metadata={"grade": "High"})
            for d, n in (("a", 5), ("b", 7))
        ]
        for row, message in enumerate(messages):
            one = block[row : row + 1]
            assert len(one) == one.rows == 1
            assert (one.task_id, one.round_index, one.size_bytes, {"grade": one.grade}) == (
                message.task_id, message.round_index, message.size_bytes, message.metadata,
            )
            assert one.device_ids == [message.device_id]
            # The oracle's storage key is a function of the row, not a column of it.
            assert payload_ref(one.task_id, one.device_ids[0], one.round_index) == message.payload_ref
            assert one.n_samples.tolist() == [message.n_samples]
            assert one.total_bytes == message.size_bytes

    def test_defaults_and_validation(self):
        block = MessageBlock(task_id="t", round_index=1, device_ids=["a"])
        assert block.n_samples.tolist() == [1]
        assert (block.grade, block.finished_at, block.update_weights) == ("", None, None)
        with pytest.raises(ValueError, match="task_id must be non-empty"):
            MessageBlock(task_id="", round_index=1, device_ids=[])
        with pytest.raises(ValueError, match="n_samples must be positive"):
            MessageBlock(task_id="t", round_index=1, device_ids=["a"], n_samples=np.array([0]))
        # Every array column must have one row per device.
        for column, values in (
            ("n_samples", np.array([1, 2])),
            ("finished_at", np.zeros(2)),
            ("update_weights", np.zeros((2, 4))),
            ("update_biases", np.zeros(2)),
        ):
            with pytest.raises(ValueError, match=f"got 1 device_ids but 2 {column} rows"):
                MessageBlock(task_id="t", round_index=1, device_ids=["a"], **{column: values})


OPTIONAL_COLUMNS = ("finished_at", "update_weights", "update_biases")


def indexed_block(index, carried, grade="High"):
    """One row per entry of ``index``, every column a function of the row's index."""
    index = np.asarray(index, dtype=np.int64)
    columns = {
        "finished_at": index * 0.5,
        "update_weights": np.stack([index, -index], axis=1) * 1.0,
        "update_biases": index * 2.0,
    }
    return MessageBlock(
        task_id="t", round_index=1, device_ids=[f"d{i}" for i in index], grade=grade, size_bytes=8,
        n_samples=index + 1, **{name: columns[name] for name in carried},
    )


def assert_aligned(block, carried, grade="High"):
    """Every column of ``block`` still describes the device its row names."""
    assert (block.task_id, block.round_index, block.grade, block.size_bytes) == ("t", 1, grade, 8)
    assert block.rows == len(block) == len(block.device_ids)
    want = indexed_block([int(device_id[1:]) for device_id in block.device_ids], carried, grade)
    assert block.n_samples.tolist() == want.n_samples.tolist()
    for name in OPTIONAL_COLUMNS:
        if name in carried:
            assert getattr(block, name).tolist() == getattr(want, name).tolist()
        else:
            assert getattr(block, name) is None


ROW_OPS = st.one_of(
    st.tuples(st.just("slice"), st.integers(0, 12), st.integers(0, 12)),
    st.tuples(st.just("compress"), st.integers(0, 2**12 - 1)),
    st.tuples(st.just("coalesce"), st.lists(st.integers(0, 12), max_size=4)),
)


class TestRowAlignment:
    @given(
        n=st.integers(min_value=1, max_value=12),
        carried=st.sets(st.sampled_from(OPTIONAL_COLUMNS)),
        ops=st.lists(ROW_OPS, max_size=6),
        id_range=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_chain_of_row_operations_keeps_every_column_aligned(self, n, carried, ops, id_range):
        block = indexed_block(range(n), carried)
        if id_range:  # a generated plan's id column ("d000003"), unrendered until an operation reads it
            block.device_ids = IdColumn(IdTable("d", n), range(n))
        for op, *args in ops:
            rows = len(block)
            if op == "slice":
                lo, hi = sorted(arg % (rows + 1) for arg in args)
                block = block[lo:hi]
            elif op == "compress":
                block = block.compress(np.array([args[0] >> row & 1 for row in range(rows)], dtype=bool))
            else:  # cut into adjacent row ranges, join them again
                (block,) = MessageBlock.coalesce(cut(block, args[0]) or [block])
                assert len(block) == rows
            assert_aligned(block, carried)

    @given(
        sizes=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        carried=st.tuples(st.sets(st.sampled_from(OPTIONAL_COLUMNS)), st.sets(st.sampled_from(OPTIONAL_COLUMNS))),
        grades=st.tuples(st.sampled_from(["High", "Low"]), st.sampled_from(["High", "Low"])),
    )
    @settings(max_examples=120, deadline=None)
    def test_blocks_coalesce_only_when_grade_and_carried_columns_agree(self, sizes, carried, grades):
        head = indexed_block(range(sizes[0]), carried[0], grades[0])
        tail = indexed_block(range(sizes[0], sizes[0] + sizes[1]), carried[1], grades[1])
        joined = MessageBlock.coalesce([head, tail])
        if carried[0] == carried[1] and grades[0] == grades[1]:
            (block,) = joined
            assert block.device_ids == [*head.device_ids, *tail.device_ids]
            assert_aligned(block, carried[0], grades[0])
        else:
            assert len(joined) == 2 and joined[0] is head and joined[1] is tail


# ----------------------------------------------------------------------
# DeviceFlow.submit_block
# ----------------------------------------------------------------------
def build_flow(sim, received):
    flow = DeviceFlow(sim, streams=RandomStreams(7))
    flow.register_task("t", RealTimeAccumulatedStrategy(thresholds=[2]), received.append)
    return flow


class TestSubmitBlock:
    def test_equivalent_delivery_to_scalar_submits(self):
        refs = [f"t/d{i}/r1" for i in range(6)]
        ids = [f"d{i}" for i in range(6)]

        def per_message(flow):
            for device_id, ref in zip(ids, refs):
                flow.submit(
                    Message(task_id="t", device_id=device_id, round_index=1,
                            payload_ref=ref, size_bytes=64, n_samples=3)
                )

        def one_block(flow):
            flow.submit_block(
                MessageBlock(
                    task_id="t", round_index=1, device_ids=ids, size_bytes=64,
                    n_samples=np.full(6, 3, dtype=np.int64),
                )
            )

        def one_row_blocks(flow):
            for row in range(6):
                flow.submit_block(
                    MessageBlock(
                        task_id="t", round_index=1, device_ids=ids[row : row + 1],
                        size_bytes=64, n_samples=[3],
                    )
                )

        sim_s = Simulator()
        recv_s = []
        flow_s = ReferenceDeviceFlow(sim_s, streams=RandomStreams(7))
        flow_s.register_task("t", ReferenceRealTimeAccumulated(thresholds=[2]), recv_s.append)
        sim_s.schedule(5.0, per_message, flow_s)
        sim_s.run()
        stats_s = flow_s.stats("t")

        for feed in (one_block, one_row_blocks):
            sim_b = Simulator()
            delivered_b = []
            flow_b = build_flow(sim_b, delivered_b)
            sim_b.schedule(5.0, feed, flow_b)
            sim_b.run()
            # Whatever was submitted, rows are delivered as MessageBlock row ranges.
            assert all(isinstance(segment, MessageBlock) for segment in delivered_b)
            assert flow_b.stats("t") == stats_s
            assert stats_s.received == stats_s.delivered == 6 and stats_s.shelved == 0
            assert [d for segment in delivered_b for d in segment.device_ids] == [m.device_id for m in recv_s]
            assert [
                payload_ref(segment.task_id, device_id, segment.round_index)
                for segment in delivered_b
                for device_id in segment.device_ids
            ] == [m.payload_ref for m in recv_s]
            assert sim_b.now == sim_s.now

    def test_unregistered_task_raises(self):
        sim = Simulator()
        flow = DeviceFlow(sim, RandomStreams(0))
        with pytest.raises(KeyError):
            flow.submit_block(
                MessageBlock(task_id="ghost", round_index=1, device_ids=["a"])
            )


# ----------------------------------------------------------------------
# AggregationService.receive_block
# ----------------------------------------------------------------------
def make_block(updates, task_id="t", round_index=1, size_bytes=64):
    return MessageBlock(
        task_id=task_id,
        round_index=round_index,
        device_ids=[u.device_id for u in updates],
        size_bytes=size_bytes,
        n_samples=np.array([u.n_samples for u in updates], dtype=np.int64),
        update_weights=np.stack([u.weights for u in updates]),
        update_biases=np.array([u.bias for u in updates]),
    )


def scalar_service(sim, updates, trigger=None):
    """The per-upload oracle fed one stored payload + one message per update."""
    storage = ReferenceStorage()
    service = ReferenceAggregationService(
        sim, storage, trigger or AggregationTrigger(), model=LogisticRegressionModel(8, SERVER_BACKEND)
    )
    for update in updates:
        ref = f"t/{update.device_id}/r1"
        storage.put(ref, update, ModelUpdate.wire_size(8), now=sim.now, writer=update.device_id)
        service.receive_message(
            Message(task_id="t", device_id=update.device_id, round_index=1,
                    payload_ref=ref, size_bytes=64, n_samples=update.n_samples)
        )
    return service


def block_service(sim, trigger=None, model=True):
    return AggregationService(
        sim, trigger or AggregationTrigger(),
        model=LogisticRegressionModel(8, SERVER_BACKEND) if model else None,
    )


class TestReceiveBlock:
    def test_block_fold_bit_identical_to_scalar_stream(self):
        updates = [make_update(f"d{i}", value=0.1 + 0.3 * i, n_samples=3 + i) for i in range(9)]
        sim = Simulator()
        scalar = scalar_service(sim, updates)
        scalar_record = scalar.aggregate_now()

        service = block_service(sim)
        service.receive_block(make_block(updates))
        block_record = service.aggregate_now()

        assert np.array_equal(service.model.weights, scalar.model.weights)
        assert service.model.bias == scalar.model.bias
        assert block_record == scalar_record and block_record.n_updates == 9
        assert service.messages_received == scalar.messages_received
        assert service.bytes_received == scalar.bytes_received

    def test_mixed_scalar_and_block_ingestion_is_exact(self):
        updates = [make_update(f"d{i}", value=1.0 / (i + 1), n_samples=2 + i) for i in range(8)]
        sim = Simulator()
        scalar = scalar_service(sim, updates)
        scalar.aggregate_now()

        mixed = block_service(sim)
        # one-row head, block middle, one-row tail — any mix must fold exactly.
        mixed.receive_block(make_block(updates[:1]))
        mixed.receive_block(make_block(updates[1:6]))
        mixed.receive_block(make_block(updates[6:7]))
        mixed.receive_block(make_block(updates[7:]))
        assert mixed.pending_updates == 8
        mixed.aggregate_now()

        assert np.array_equal(mixed.model.weights, scalar.model.weights)
        assert mixed.model.bias == scalar.model.bias

    def test_sample_threshold_trigger_fires_on_block(self):
        sim = Simulator()
        service = block_service(sim, SampleThresholdTrigger(25))
        service.receive_block(make_block([make_update(f"d{i}", n_samples=10) for i in range(3)]))
        assert service.rounds_completed == 1
        assert service.pending_updates == 0

    def test_threshold_trigger_fires_after_the_chunk_that_crosses_it(self):
        """Delivery chunks are buffered atomically: the fold takes whole chunks."""
        sim = Simulator()
        service = block_service(sim, SampleThresholdTrigger(25), model=False)

        def chunk(first, count):
            ids = [f"d{first + i}" for i in range(count)]
            return MessageBlock(
                task_id="t", round_index=1, device_ids=ids, n_samples=np.full(count, 4)
            )

        service.receive_block(chunk(0, 3))  # 12 samples
        service.receive_block(chunk(3, 3))  # 24 samples: still below
        assert service.rounds_completed == 0 and service.pending_updates == 6
        service.receive_block(chunk(6, 5))  # 44 samples: crosses inside this chunk
        assert service.rounds_completed == 1
        record = service.history[0]
        # ...and the fold holds every row of the crossing chunk, not just 25 samples' worth.
        assert (record.n_updates, record.n_samples) == (11, 44)
        assert service.pending_updates == 0 and service.pending_samples == 0

    def test_counting_mode_accepts_blocks_without_updates(self):
        sim = Simulator()
        service = block_service(sim, model=False)
        service.receive_block(
            MessageBlock(task_id="t", round_index=1, device_ids=["a", "b"], size_bytes=10,
                         n_samples=np.array([4, 6]))
        )
        assert service.pending_updates == 2
        assert service.pending_samples == 10
        record = service.aggregate_now()
        assert record.n_updates == 2

    def test_model_mode_rejects_blocks_without_updates(self):
        sim = Simulator()
        service = block_service(sim)
        with pytest.raises(TypeError):
            service.receive_block(
                MessageBlock(task_id="t", round_index=1, device_ids=["a"])
            )

    def test_empty_block_is_ignored(self):
        sim = Simulator()
        service = block_service(sim)
        service.receive_block(
            MessageBlock(task_id="t", round_index=1, device_ids=[])
        )
        assert service.messages_received == 0
        assert service.pending_updates == 0


# ----------------------------------------------------------------------
# any partition of a round == the whole block == the per-upload oracle
# ----------------------------------------------------------------------
DIM = 3
WAVE_TIMES = (2.0, 2.5, 4.0, 7.0)
CHANNEL = ChannelModel(
    latency_s=0.4, jitter_s=0.8, loss_prob=0.25, dup_prob=0.5, retry_base_s=0.5, retry_cap_s=2.0, max_attempts=3
)
#: No jitter: a wave's first-try uploads share one arrival instant, ``wave time + latency``.
TIED = replace(CHANNEL, jitter_s=0.0)
#: A deadline exactly on the second wave's tied arrival instant.
ON_ARRIVAL = WAVE_TIMES[1] + TIED.latency_s
THRESHOLDS, FAILURE_PROB, CAPACITY = [3, 1, 2], 0.2, 20.0
#: A rule-based schedule: it never reacts to an arrival, so a channel shelves its uploads ahead.
POINTS = [TimePoint(0.0, 3), TimePoint(0.5, 2, failure_prob=0.3), TimePoint(1.5, 40, discard_count=1)]


def make_round(wave_sizes, numeric, seed):
    """One round's rows as a whole-plan block; rows of a wave share a completion time."""
    rng = np.random.default_rng(seed)
    n = sum(wave_sizes)
    return MessageBlock(
        task_id="t",
        round_index=1,
        device_ids=[f"d{i:02d}" for i in range(n)],
        grade="High",
        size_bytes=96,
        n_samples=rng.integers(1, 10, size=n),
        finished_at=np.repeat(WAVE_TIMES[: len(wave_sizes)], wave_sizes),
        update_weights=rng.normal(size=(n, DIM)) * 10.0 ** rng.integers(-6, 7, size=(n, 1)) if numeric else None,
        update_biases=rng.normal(size=n) if numeric else None,
    )


def delivery_units(block, wave_sizes, flow_attached):
    """``(time, block)`` per delivery, as the tiers make them: a flow-attached
    sink gets one block per wave at the wave's time, a direct one the whole
    plan at its last completion."""
    if not flow_attached:
        return [(float(block.finished_at.max()), block)]
    edges = np.cumsum([0, *wave_sizes])
    return [(WAVE_TIMES[w], block[edges[w] : edges[w + 1]]) for w in range(len(wave_sizes))]


def cut(block, cuts):
    """``block`` partitioned at ``cuts`` (``None``: one row per part)."""
    edges = range(len(block) + 1) if cuts is None else sorted({0, len(block), *(c % (len(block) + 1) for c in cuts)})
    return [block[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


def returned(generator):
    """The return value of a generator that has nothing left to wait for."""
    try:
        next(generator)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("the round still had deliveries in flight")


def run_round(units, flow_attached, gate, deadline, numeric, seed, rule_based, tied, oracle):
    """Deliver ``units`` through the cloud path; return everything observable.

    ``units`` holds ``(time, deliveries)``: blocks for production, one
    outcome record per upload for the ``oracle``.  The gates are armed the
    way ``TaskRunner._run_round`` arms them, a flow deadline discarding the
    shelf as ``TaskRunner._close_flow_round`` does.  A flow-attached round
    also reads the task's stats at each wave's first-try arrival instant,
    once from an event scheduled before the round's uploads were planned and
    once from one scheduled after: the reads land on either side of the
    arrivals that share the instant.  ``rule_based`` dispatches at
    :data:`POINTS`, and ``tied`` runs the channel without jitter.
    """
    sim, streams = Simulator(), RandomStreams(seed)
    model = LogisticRegressionModel(DIM, SERVER_BACKEND) if numeric else None
    channelled = gate == "channel"
    channel_model = TIED if tied else CHANNEL
    flow = channel = None
    if oracle:
        tracer, storage = ReferenceTracer(), ReferenceStorage()
        service = ReferenceAggregationService(sim, storage, AggregationTrigger(), model=model)
        if flow_attached:
            flow = ReferenceDeviceFlow(sim, streams, capacity_per_second=CAPACITY)
            strategy = ReferenceRealTimeAccumulated(THRESHOLDS, FAILURE_PROB)
            if rule_based:
                strategy = ReferenceTimePoints(POINTS)
        sink = ReferenceIngestSink(sim, "t", storage, service, deviceflow=flow, dedup=channelled, tracer=tracer)
        if channelled:
            channel = ReferenceTransportChannel(sim, channel_model, sink, streams, "t", scope="", tracer=tracer)
    else:
        tracer = Tracer()
        service = AggregationService(sim, AggregationTrigger(), model=model)
        if flow_attached:
            flow = DeviceFlow(sim, streams, capacity_per_second=CAPACITY, tracer=tracer)
            strategy = RealTimeAccumulatedStrategy(THRESHOLDS, FAILURE_PROB)
            if rule_based:
                strategy = TimePointStrategy(POINTS)
        sink = CloudIngestSink(sim, service, deviceflow=flow, dedup=channelled, tracer=tracer)
        if channelled:
            channel = TransportChannel(sim, channel_model, sink, streams, scope="", tracer=tracer)
    reads = []
    if flow_attached:
        flow.register_task("t", strategy, sink.flow_receive)
        flow.round_started("t", 1)
        if deadline is not None:
            sim.schedule_at(deadline, lambda: reads.append((sim.now, "discarded", flow.discard_shelved("t"))))

    def read():
        reads.append((sim.now, flow.stats("t")))

    if channelled:
        channel.begin_round(1, deadline=None if flow_attached else deadline)
    sink.begin_round(1, deadline=deadline if (flow_attached or not channelled) else None)
    front = channel or sink

    def accept(delivery):
        # The runner's hand-over: a delivery enters the trace once, as the tier hands it to the cloud side.
        if oracle:
            tracer.record_device("t", delivery)
            front.accept(delivery)
        else:
            tracer.record_block(delivery)
            front.accept_block(delivery)

    for time, deliveries in units:
        if flow_attached:
            sim.schedule_at(time + channel_model.latency_s, read)
        for delivery in deliveries:
            sim.schedule_at(time, accept, delivery)
        if flow_attached:  # once the wave's uploads are planned
            sim.schedule_at(time, sim.schedule_at, time + channel_model.latency_s, read)
    sim.run()
    if flow_attached:  # the kernel's last key may be the last arrival's own
        read()
    transport = returned(channel.finish_round()).as_dict() if channelled else None
    dispatcher = None
    if flow_attached:
        flow.round_completed("t", 1)
        sim.run()
        dispatcher = flow.dispatcher_for("t")
    if service.pending_updates:
        service.aggregate_now()
    if oracle:
        devices, flow_submits, flow_deliveries = tracer.devices, tracer.flow_submits, tracer.flow_deliveries
    else:
        devices = tracer.all_devices()
        flow_submits, flow_deliveries = _per_device(tracer.flow_submits), _per_device(tracer.flow_deliveries)
    return {
        "history": service.history,
        "model": None if model is None else (model.weights.tobytes(), model.bias),
        "received": (service.messages_received, service.bytes_received),
        "gate": (sink.delivered, sink.duplicate_drops, sink.late_drops),
        "flow": None if dispatcher is None else (flow.stats("t"), dispatcher.dispatch_log, dispatcher.delivery_log),
        "transport": transport,
        "devices": sorted(devices),
        "uploads": sorted(tracer.uploads, key=lambda upload: upload[:4]),
        "ingest_drops": sorted(tracer.ingest_drops),
        "flow_submits": sorted(flow_submits),
        "flow_deliveries": sorted(flow_deliveries),
        "reads": reads,
        "end": sim.now,
    }


class TestAnyPartitionEqualsPerUploadOracle:
    @given(
        wave_sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
        cuts=st.lists(st.integers(min_value=0, max_value=16), max_size=5),
        flow_attached=st.booleans(),
        gate=st.sampled_from(["none", "deadline", "channel"]),
        deadline=st.sampled_from([2.5, ON_ARRIVAL, 4.0, 4.6, 7.5, 30.0]),
        numeric=st.booleans(),
        seed=st.integers(min_value=0, max_value=7),
        rule_based=st.booleans(),
        tied=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_partition_of_a_round_equals_the_whole_block_and_the_oracle(
        self, wave_sizes, cuts, flow_attached, gate, deadline, numeric, seed, rule_based, tied
    ):
        if gate == "none":
            deadline = None
        block = make_round(wave_sizes, numeric, seed)
        units = delivery_units(block, wave_sizes, flow_attached)
        config = (flow_attached, gate, deadline, numeric, seed, rule_based, tied)

        whole = run_round([(time, [unit]) for time, unit in units], *config, oracle=False)
        for partition in (cuts, None):  # any cut points; one row per block
            parts = run_round([(time, cut(unit, partition)) for time, unit in units], *config, oracle=False)
            assert parts == whole
        want = run_round([(time, materialize(unit)) for time, unit in units], *config, oracle=True)
        assert whole == want

        # The round did something worth comparing.
        assert len(whole["devices"]) == len(block)
        if gate == "deadline" and not flow_attached:
            delivered, _, late = whole["gate"]
            assert delivered + late == len(block)


class TestShelvedAheadEqualsPerUploadOracle:
    """A rule-based task's channel shelves a wave's uploads ahead, as future-dated rows, and schedules no
    event per upload: every read of the shelf, at an arrival instant from either side of it, at a deadline
    that discards there, or after the round, sees what one delivery event per upload would have built."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("deadline", [None, ON_ARRIVAL, 4.6])
    def test_a_tied_lossy_round_under_time_points_equals_the_oracle(self, deadline, seed):
        wave_sizes = [3, 4, 2, 3]
        block = make_round(wave_sizes, numeric=True, seed=seed)
        units = delivery_units(block, wave_sizes, flow_attached=True)
        config = (True, "channel", deadline, True, seed, True, True)
        whole = run_round([(time, [unit]) for time, unit in units], *config, oracle=False)
        assert run_round([(time, cut(unit, None)) for time, unit in units], *config, oracle=False) == whole
        assert whole == run_round([(time, materialize(unit)) for time, unit in units], *config, oracle=True)
        # The two reads at some arrival instant fall on either side of the uploads arriving there.
        received = {}
        for time, *read in whole["reads"]:
            if read[0] != "discarded":
                received.setdefault(time, []).append(read[0].received)
        assert any(len(set(counts)) > 1 for counts in received.values())


class TestChannelTieOrder:
    def test_equal_arrivals_deliver_in_row_order_duplicates_directly_behind(self):
        """Jitter 0: a wave's uploads share one arrival instant, and every
        delivery is its own kernel event — so the order the sink sees is the
        order they were scheduled in: block row order, a duplicate directly
        after its primary.  A wave arriving exactly at the round deadline is
        late, whatever else fires at that instant."""
        tied = ChannelModel(latency_s=0.5, dup_prob=0.5)
        block = make_round([4, 4], numeric=False, seed=0)  # completes at 2.0 x4, 2.5 x4
        runs = []
        for oracle in (False, True):
            sim, log = Simulator(), []
            sink = CallbackSink(lambda outcome: log.append((sim.now, outcome.device_id, outcome.finished_at)))
            if oracle:
                channel = ReferenceTransportChannel(sim, tied, sink, RandomStreams(3), "t", scope="")
            else:
                channel = TransportChannel(sim, tied, sink, RandomStreams(3), scope="")
            channel.begin_round(1, deadline=3.0)  # the second wave arrives at 2.5 + 0.5
            sim.schedule_at(3.0, log.append, "deadline")
            if oracle:
                for outcome in materialize(block):
                    channel.accept(outcome)
            else:
                channel.accept_block(block)
            sim.run()
            runs.append((log, returned(channel.finish_round()).as_dict()))
        assert runs[0] == runs[1]
        log, counters = runs[0]
        assert log.pop() == "deadline"
        assert all(entry[0] == entry[2] == 2.5 for entry in log)
        copies = [(device_id, len(list(group))) for device_id, group in groupby(entry[1] for entry in log)]
        assert [device_id for device_id, _ in copies] == block.device_ids[:4]
        assert sorted({count for _, count in copies}) == [1, 2]  # some duplicated, some not
        assert counters == {
            "uploads": 8, "delivered": 4, "retries": 0, "abandoned": 0, "late_drops": 4,
            "duplicates": sum(count - 1 for _, count in copies),
        }
