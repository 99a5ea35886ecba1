"""Unit tests for the columnar cloud path: put_block, MessageBlock,
submit_block and receive_block.

The contract under test everywhere: the block variant of each cloud
operation is *observably equivalent* to its n scalar counterparts —
same counters, same reads, same folded model bits — while performing a
constant number of Python-level bookkeeping operations per block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    AggregationService,
    ObjectStorage,
    SampleThresholdTrigger,
)
from repro.cloud.aggregation import AggregationTrigger
from repro.deviceflow import DeviceFlow, Message, MessageBlock, RealTimeAccumulatedStrategy
from repro.ml.backends import SERVER_BACKEND
from repro.ml.fedavg import ModelUpdate
from repro.ml.model import LogisticRegressionModel
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
# ObjectStorage.put_block
# ----------------------------------------------------------------------
class TestPutBlock:
    def test_accounting_equivalent_to_scalar_puts(self):
        scalar, block = ObjectStorage(), ObjectStorage()
        keys = [f"t/d{i}/r1" for i in range(7)]
        values = [{"i": i} for i in range(7)]
        sizes = [100 + i for i in range(7)]
        times = [float(10 + i) for i in range(7)]
        writers = [f"d{i}" for i in range(7)]
        for k, v, s, t, w in zip(keys, values, sizes, times, writers):
            scalar.put(k, v, s, now=t, writer=w)
        block.put_block(keys, values, np.array(sizes), now=np.array(times), writers=writers)

        assert block.put_count == scalar.put_count == 7
        assert block.total_bytes_written == scalar.total_bytes_written
        assert len(block) == len(scalar) == 7
        assert block.keys() == scalar.keys()

    def test_reads_and_heads_indistinguishable_from_scalar(self):
        scalar, block = ObjectStorage(), ObjectStorage()
        keys = [f"k{i}" for i in range(5)]
        values = list(range(5))
        for i, key in enumerate(keys):
            scalar.put(key, values[i], 64, now=float(i), writer=f"w{i}")
        block.put_block(keys, values, 64, now=np.arange(5.0), writers=[f"w{i}" for i in range(5)])

        for key in keys:
            assert block.get(key) == scalar.get(key)
            bh, sh = block.head(key), scalar.head(key)
            assert (bh.key, bh.value, bh.size_bytes, bh.stored_at, bh.writer) == (
                sh.key, sh.value, sh.size_bytes, sh.stored_at, sh.writer,
            )
        assert block.get_count == scalar.get_count
        assert block.total_bytes_read == scalar.total_bytes_read

    def test_broadcast_scalars_for_size_time_writer(self):
        storage = ObjectStorage()
        storage.put_block(["a", "b"], [1, 2], 50, now=3.0, writers="shared")
        assert storage.total_bytes_written == 100
        head = storage.head("b")
        assert head.size_bytes == 50 and head.stored_at == 3.0 and head.writer == "shared"

    def test_block_keys_support_overwrite(self):
        storage = ObjectStorage()
        storage.put_block(["a", "b"], [1, 2], 10, now=0.0, writers="")
        storage.put("b", 99, 20, now=7.0)
        assert storage.get("b") == 99
        assert storage.head("b").stored_at == 7.0

    def test_validation(self):
        storage = ObjectStorage()
        with pytest.raises(ValueError):
            storage.put_block(["a"], [1, 2], 10, now=0.0, writers="")
        with pytest.raises(ValueError):
            storage.put_block(["a", "b"], [1, 2], 10, now=0.0, writers=["only-one"])
        with pytest.raises(ValueError):
            storage.put_block(["a"], [1], -5, now=0.0, writers="")
        assert storage.put_block([], [], 10, now=0.0, writers="") == 0
        assert len(storage) == 0 and storage.put_count == 0

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=12),
        scalar_size=st.booleans(),
        scalar_time=st.booleans(),
        shared_writer=st.booleans(),
    )
    def test_property_block_equals_scalar_for_any_shape(
        self, n, scalar_size, scalar_time, shared_writer
    ):
        keys = [f"k{i}" for i in range(n)]
        values = [i * 2 for i in range(n)]
        sizes = 32 if scalar_size else np.arange(n, dtype=np.int64) * 8
        times = 1.5 if scalar_time else np.arange(n, dtype=np.float64) / 2
        writers = "w" if shared_writer else [f"w{i}" for i in range(n)]

        scalar, block = ObjectStorage(), ObjectStorage()
        for i, key in enumerate(keys):
            scalar.put(
                key,
                values[i],
                int(sizes) if scalar_size else int(sizes[i]),
                now=float(times) if scalar_time else float(times[i]),
                writer=writers if shared_writer else writers[i],
            )
        assert block.put_block(keys, values, sizes, now=times, writers=writers) == n

        assert block.put_count == scalar.put_count
        assert block.total_bytes_written == scalar.total_bytes_written
        assert block.keys() == scalar.keys()
        for key in keys:
            assert block.get(key) == scalar.get(key)
            bh, sh = block.head(key), scalar.head(key)
            assert (bh.value, bh.size_bytes, bh.stored_at, bh.writer) == (
                sh.value, sh.size_bytes, sh.stored_at, sh.writer,
            )
        assert block.total_bytes_read == scalar.total_bytes_read


# ----------------------------------------------------------------------
# MessageBlock
# ----------------------------------------------------------------------
class TestMessageBlock:
    def test_materializes_to_equivalent_scalar_messages(self):
        block = MessageBlock(
            task_id="t",
            round_index=3,
            device_ids=["a", "b"],
            payload_refs=["t/a/r3", "t/b/r3"],
            size_bytes=128,
            n_samples=np.array([5, 7]),
            finished_at=np.array([10.0, 12.0]),
            metadata={"grade": "High"},
        )
        assert len(block) == 2
        assert block.total_bytes == 256
        assert block.total_samples == 12
        messages = block.messages()
        assert [m.device_id for m in messages] == ["a", "b"]
        assert [m.created_at for m in messages] == [10.0, 12.0]
        assert [m.n_samples for m in messages] == [5, 7]
        assert all(m.metadata == {"grade": "High"} and m.task_id == "t" for m in messages)
        # explicit arrival stamp (what DeviceFlow.submit_block uses)
        assert [m.created_at for m in block.messages(created_at=42.0)] == [42.0, 42.0]

    def test_defaults_and_validation(self):
        block = MessageBlock(task_id="t", round_index=1, device_ids=["a"], payload_refs=["r"])
        assert block.n_samples.tolist() == [1]
        with pytest.raises(ValueError):
            MessageBlock(task_id="", round_index=1, device_ids=[], payload_refs=[])
        with pytest.raises(ValueError):
            MessageBlock(task_id="t", round_index=1, device_ids=["a", "b"], payload_refs=["r"])
        with pytest.raises(ValueError):
            MessageBlock(
                task_id="t", round_index=1, device_ids=["a"], payload_refs=["r"],
                n_samples=np.array([0]),
            )
        with pytest.raises(ValueError):
            MessageBlock(
                task_id="t", round_index=1, device_ids=["a"], payload_refs=["r"],
                update_weights=np.zeros((2, 4)),
            )


# ----------------------------------------------------------------------
# DeviceFlow.submit_block
# ----------------------------------------------------------------------
def build_flow(sim, received):
    flow = DeviceFlow(sim, streams=RandomStreams(7))
    flow.register_task("t", RealTimeAccumulatedStrategy(thresholds=[2]), received.append)
    return flow


class TestSubmitBlock:
    def test_equivalent_delivery_to_scalar_submits(self):
        def drive(use_block):
            sim = Simulator()
            received = []
            flow = build_flow(sim, received)
            refs = [f"t/d{i}/r1" for i in range(6)]
            ids = [f"d{i}" for i in range(6)]

            def feed():
                if use_block:
                    flow.submit_block(
                        MessageBlock(
                            task_id="t", round_index=1, device_ids=ids,
                            payload_refs=refs, size_bytes=64,
                            n_samples=np.full(6, 3, dtype=np.int64),
                        )
                    )
                else:
                    for device_id, ref in zip(ids, refs):
                        flow.submit(
                            Message(task_id="t", device_id=device_id, round_index=1,
                                    payload_ref=ref, size_bytes=64, n_samples=3)
                        )

            sim.schedule(5.0, feed)
            sim.run()
            return sim, flow, received

        sim_s, flow_s, recv_s = drive(use_block=False)
        sim_b, flow_b, delivered_b = drive(use_block=True)
        # Block submissions are delivered as MessageBlock row ranges.
        assert all(isinstance(segment, MessageBlock) for segment in delivered_b)
        recv_b = [m for segment in delivered_b for m in segment.messages()]
        stats_s, stats_b = flow_s.stats("t"), flow_b.stats("t")
        assert stats_b.received == stats_s.received == 6
        assert stats_b.delivered == stats_s.delivered
        assert stats_b.shelved == stats_s.shelved == 0
        assert [m.device_id for m in recv_b] == [m.device_id for m in recv_s]
        assert [m.payload_ref for m in recv_b] == [m.payload_ref for m in recv_s]
        assert all(m.created_at == 5.0 for m in recv_b)

    def test_unregistered_task_raises(self):
        sim = Simulator()
        flow = DeviceFlow(sim, RandomStreams(0))
        with pytest.raises(KeyError):
            flow.submit_block(
                MessageBlock(task_id="ghost", round_index=1, device_ids=["a"], payload_refs=["r"])
            )


# ----------------------------------------------------------------------
# AggregationService.receive_block
# ----------------------------------------------------------------------
def make_block(updates, task_id="t", round_index=1, size_bytes=64):
    return MessageBlock(
        task_id=task_id,
        round_index=round_index,
        device_ids=[u.device_id for u in updates],
        payload_refs=[f"{task_id}/{u.device_id}/r{round_index}" for u in updates],
        size_bytes=size_bytes,
        n_samples=np.array([u.n_samples for u in updates], dtype=np.int64),
        update_weights=np.stack([u.weights for u in updates]),
        update_biases=np.array([u.bias for u in updates]),
    )


def scalar_service(sim, updates, trigger=None):
    storage = ObjectStorage()
    service = AggregationService(
        sim, storage, trigger or AggregationTrigger(), model=LogisticRegressionModel(8, SERVER_BACKEND), name="agg"
    )
    for update in updates:
        ref = f"t/{update.device_id}/r1"
        storage.put(ref, update, update.payload_bytes(), now=sim.now, writer=update.device_id)
        service.receive_message(
            Message(task_id="t", device_id=update.device_id, round_index=1,
                    payload_ref=ref, size_bytes=64, n_samples=update.n_samples)
        )
    return service


class TestReceiveBlock:
    def test_block_fold_bit_identical_to_scalar_stream(self):
        updates = [make_update(f"d{i}", value=0.1 + 0.3 * i, n_samples=3 + i) for i in range(9)]
        sim = Simulator()
        scalar = scalar_service(sim, updates)
        scalar_record = scalar.aggregate_now()

        block_service = AggregationService(
            sim, ObjectStorage(), AggregationTrigger(), model=LogisticRegressionModel(8, SERVER_BACKEND), name="agg"
        )
        block_service.receive_block(make_block(updates))
        block_record = block_service.aggregate_now()

        assert np.array_equal(block_service.model.weights, scalar.model.weights)
        assert block_service.model.bias == scalar.model.bias
        assert block_record.n_updates == scalar_record.n_updates == 9
        assert block_record.n_samples == scalar_record.n_samples
        assert block_service.messages_received == scalar.messages_received
        assert block_service.bytes_received == scalar.bytes_received

    def test_mixed_scalar_and_block_ingestion_is_exact(self):
        updates = [make_update(f"d{i}", value=1.0 / (i + 1), n_samples=2 + i) for i in range(8)]
        sim = Simulator()
        scalar = scalar_service(sim, updates)
        scalar.aggregate_now()

        mixed = AggregationService(
            sim, ObjectStorage(), AggregationTrigger(), model=LogisticRegressionModel(8, SERVER_BACKEND), name="agg"
        )
        # scalar head, block middle, scalar tail — any mix must fold exactly.
        mixed.receive_update(updates[0])
        mixed.receive_block(make_block(updates[1:6]))
        mixed.receive_update(updates[6])
        mixed.receive_update(updates[7])
        assert mixed.pending_updates == 8
        mixed.aggregate_now()

        assert np.array_equal(mixed.model.weights, scalar.model.weights)
        assert mixed.model.bias == scalar.model.bias

    def test_sample_threshold_trigger_fires_on_block(self):
        sim = Simulator()
        service = AggregationService(
            sim, ObjectStorage(), SampleThresholdTrigger(25),
            model=LogisticRegressionModel(8, SERVER_BACKEND), name="agg",
        )
        service.receive_block(make_block([make_update(f"d{i}", n_samples=10) for i in range(3)]))
        assert service.rounds_completed == 1
        assert service.pending_updates == 0

    def test_threshold_trigger_fires_after_the_chunk_that_crosses_it(self):
        """Delivery chunks are buffered atomically: the fold takes whole chunks."""
        sim = Simulator()
        service = AggregationService(sim, ObjectStorage(), SampleThresholdTrigger(25), model=None, name="agg")

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
        service = AggregationService(sim, ObjectStorage(), AggregationTrigger(), model=None, name="agg")
        service.receive_block(
            MessageBlock(task_id="t", round_index=1, device_ids=["a", "b"],
                         payload_refs=["r1", "r2"], size_bytes=10,
                         n_samples=np.array([4, 6]))
        )
        assert service.pending_updates == 2
        assert service.pending_samples == 10
        record = service.aggregate_now()
        assert record.n_updates == 2

    def test_model_mode_rejects_blocks_without_updates(self):
        sim = Simulator()
        service = AggregationService(
            sim, ObjectStorage(), AggregationTrigger(), model=LogisticRegressionModel(8, SERVER_BACKEND), name="agg"
        )
        with pytest.raises(TypeError):
            service.receive_block(
                MessageBlock(task_id="t", round_index=1, device_ids=["a"], payload_refs=["r"])
            )

    def test_empty_block_is_ignored(self):
        sim = Simulator()
        service = AggregationService(
            sim, ObjectStorage(), AggregationTrigger(), model=LogisticRegressionModel(8, SERVER_BACKEND), name="agg"
        )
        service.receive_block(
            MessageBlock(task_id="t", round_index=1, device_ids=[], payload_refs=[])
        )
        assert service.messages_received == 0
        assert service.pending_updates == 0
