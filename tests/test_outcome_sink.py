"""The OutcomeSink contract and the block-vs-scalar ingestion differential.

Three layers of the same guarantee:

1. Protocol mechanics — structural ``isinstance`` checks, the
   bare-callable deprecation shim, block materialization.
2. Tier level — a ``LogicalSimulation`` round delivered to a
   ``CloudIngestSink`` in block mode leaves storage and the aggregation
   service bit-identical to scalar streaming.
3. Platform level — a full multi-tenant scenario replayed with
   ``cloud_blocks=True`` and ``cloud_blocks=False`` produces
   byte-identical reports (including a DeviceFlow tenant, which moves
   one block per completion wave in the first and one message per
   device in the second).
"""


import numpy as np
import pytest

from repro.cloud import (
    AggregationService,
    CallbackSink,
    CloudIngestSink,
    ObjectStorage,
    OutcomeSink,
    coerce_sink,
)
from repro.cloud.aggregation import AggregationTrigger
from repro.cluster import (
    DeviceAssignment,
    GradeExecutionPlan,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    ResourceBundle,
)
from repro.data.avazu import DeviceDataset
from repro.deviceflow import DeviceFlow, RealTimeAccumulatedStrategy
from repro.ml import standard_fl_flow
from repro.ml.model import LogisticRegressionModel
from repro.scenarios import (
    ArrivalSpec,
    DispatchSpec,
    GradeSpec,
    ScenarioSpec,
    TenantSpec,
    run_scenario,
)
from repro.simkernel import RandomStreams, Simulator

FEATURE_DIM = 16
MODEL_BYTES = 2048
NODES = [NodeSpec(cpus=10, memory_gb=20)] * 2
COST = LogicalCostModel(alpha={"Std": 9.0}, actor_startup=0.5, runner_setup=2.0)


# ----------------------------------------------------------------------
# protocol mechanics
# ----------------------------------------------------------------------
class TestProtocol:
    def test_structural_isinstance(self):
        class Good:
            def accept(self, outcome):
                pass

            def accept_block(self, block):
                pass

        class Missing:
            def accept(self, outcome):
                pass

        assert isinstance(Good(), OutcomeSink)
        assert not isinstance(Missing(), OutcomeSink)
        assert isinstance(CallbackSink(lambda o: None), OutcomeSink)
        sim = Simulator()
        sink = CloudIngestSink(
            sim, "t", ObjectStorage(),
            AggregationService(sim, ObjectStorage(), AggregationTrigger()),
        )
        assert isinstance(sink, OutcomeSink)

    def test_coerce_passes_sinks_and_none_through(self):
        sink = CallbackSink(lambda o: None)
        assert coerce_sink(sink) is sink
        assert coerce_sink(None) is None

    def test_coerce_wraps_bare_callable_with_deprecation(self):
        seen = []
        with pytest.warns(DeprecationWarning, match="bare callable"):
            wrapped = coerce_sink(seen.append)
        assert isinstance(wrapped, CallbackSink)
        assert wrapped.prefers_blocks is False
        wrapped.accept("outcome")
        assert seen == ["outcome"]

    def test_coerce_rejects_non_callables(self):
        with pytest.raises(TypeError):
            coerce_sink(42)
        with pytest.raises(TypeError):
            CallbackSink("not-callable")

    def test_run_round_warns_on_bare_callable(self):
        sim = Simulator()
        logical = LogicalSimulation(sim, K8sCluster(NODES), COST, streams=RandomStreams(0))
        plan = make_plan(n_devices=4, numeric=False)

        def drive():
            yield sim.process(logical.prepare([plan]))
            yield sim.process(logical.run_round(1, None, 0.0, 0, lambda o: None))

        sim.process(drive())
        with pytest.warns(DeprecationWarning, match="bare callable"):
            sim.run()
        logical.teardown()

    def test_flow_connected_sink_takes_wave_blocks(self):
        sim = Simulator()
        service = AggregationService(sim, ObjectStorage(), AggregationTrigger())
        flow = DeviceFlow(sim)
        sink = CloudIngestSink(
            sim, "t", ObjectStorage(), service, deviceflow=flow, prefer_blocks=True
        )
        flow.register_task("t", RealTimeAccumulatedStrategy(thresholds=[1]), sink.flow_receive)
        # Traffic shaping must see arrivals mid-round: blocks, but per wave.
        assert sink.prefers_blocks is True and sink.prefers_waves is True
        direct = CloudIngestSink(sim, "t", ObjectStorage(), service)
        assert direct.prefers_blocks is True and direct.prefers_waves is False
        streaming = CloudIngestSink(
            sim, "t", ObjectStorage(), service, deviceflow=flow, prefer_blocks=False
        )
        assert streaming.prefers_blocks is False


# ----------------------------------------------------------------------
# tier-level differential
# ----------------------------------------------------------------------
def make_plan(n_devices=12, n_actors=4, numeric=True):
    rng = np.random.default_rng(17)
    assignments = []
    for i in range(n_devices):
        features = rng.integers(0, FEATURE_DIM, size=(10, 4)).astype(np.int32)
        labels = rng.integers(0, 2, size=10).astype(np.int8)
        assignments.append(
            DeviceAssignment(
                f"d{i:04d}", "Std", 10,
                dataset=DeviceDataset(f"d{i:04d}", features, labels) if numeric else None,
            )
        )
    return GradeExecutionPlan(
        grade="Std",
        assignments=assignments,
        n_actors=n_actors,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=standard_fl_flow(epochs=1, batch_size=8),
        feature_dim=FEATURE_DIM,
        numeric=numeric,
    )


def run_tier_round(prefer_blocks):
    """One numeric round delivered through a CloudIngestSink."""
    sim = Simulator()
    logical = LogicalSimulation(
        sim, K8sCluster(NODES), COST, streams=RandomStreams(3), batch=True
    )
    storage = ObjectStorage()
    service = AggregationService(
        sim, storage, AggregationTrigger(), model=LogisticRegressionModel(FEATURE_DIM)
    )
    sink = CloudIngestSink(sim, "t", storage, service, prefer_blocks=prefer_blocks)
    plan = make_plan()

    def drive():
        yield sim.process(logical.prepare([plan], task_id="t"))
        yield sim.process(
            logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, sink)
        )

    sim.process(drive())
    sim.run(batch=True)
    record = service.aggregate_now()
    logical.teardown()
    return storage, service, record


class TestTierDifferential:
    def test_block_and_scalar_ingestion_identical(self):
        storage_s, service_s, record_s = run_tier_round(prefer_blocks=False)
        storage_b, service_b, record_b = run_tier_round(prefer_blocks=True)

        # Aggregation: same fold, bit-identical model.
        assert np.array_equal(service_b.model.weights, service_s.model.weights)
        assert service_b.model.bias == service_s.model.bias
        assert record_b.n_updates == record_s.n_updates
        assert record_b.n_samples == record_s.n_samples
        assert record_b.time == record_s.time
        assert service_b.messages_received == service_s.messages_received
        assert service_b.bytes_received == service_s.bytes_received

        # Storage: same keys, same payload bits, same metadata.
        shared_keys = storage_s.keys()
        assert storage_b.keys() == shared_keys
        assert storage_b.put_count == storage_s.put_count
        assert storage_b.total_bytes_written == storage_s.total_bytes_written
        for key in shared_keys:
            head_b, head_s = storage_b.head(key), storage_s.head(key)
            assert head_b.size_bytes == head_s.size_bytes
            assert head_b.stored_at == head_s.stored_at
            assert head_b.writer == head_s.writer
            update_b, update_s = storage_b.get(key), storage_s.get(key)
            assert np.array_equal(update_b.weights, update_s.weights)
            assert update_b.bias == update_s.bias
            assert update_b.n_samples == update_s.n_samples

    def test_callback_sink_materializes_blocks_in_completion_order(self):
        # A CallbackSink handed to a batched tier must observe the same
        # per-device stream the legacy path produced (covered broadly by
        # test_numeric_equivalence; this pins the block-materialize path).
        block_seen, scalar_seen = [], []
        for collect, prefer in ((block_seen, True), (scalar_seen, False)):
            sim = Simulator()
            logical = LogicalSimulation(
                sim, K8sCluster(NODES), COST, streams=RandomStreams(3), batch=True
            )
            plan = make_plan(numeric=False)
            sink = CallbackSink(collect.append)
            assert sink.prefers_blocks is False or prefer

            def drive():
                yield sim.process(logical.prepare([plan], task_id="t"))
                yield sim.process(logical.run_round(1, None, 0.0, 0, sink))

            sim.process(drive())
            sim.run(batch=True)
            logical.teardown()
        assert [o.device_id for o in block_seen] == [o.device_id for o in scalar_seen]
        assert [o.finished_at for o in block_seen] == [o.finished_at for o in scalar_seen]


    def test_wave_preferring_sink_gets_row_views_at_wave_times(self):
        """``prefers_waves`` turns one plan block into one zero-copy view per wave."""

        class WaveSink:
            prefers_waves = True

            def __init__(self, sim):
                self.sim, self.waves = sim, []

            def accept(self, outcome):  # pragma: no cover - batched plans only
                raise AssertionError("batched plans deliver blocks")

            def accept_block(self, block):
                self.waves.append((self.sim.now, block))

        sim = Simulator()
        logical = LogicalSimulation(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))
        sink = WaveSink(sim)
        plan = make_plan(n_devices=10, n_actors=4)
        holder = {}

        def drive():
            yield sim.process(logical.prepare([plan], task_id="t"))
            holder["result"] = yield sim.process(
                logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, sink)
            )

        sim.process(drive())
        sim.run(batch=True)
        logical.teardown()
        (whole,) = holder["result"].columnar
        assert [len(wave) for _, wave in sink.waves] == [4, 4, 2]
        assert holder["result"].n_devices == 10 and not holder["result"].outcomes
        row = 0
        for time, wave in sink.waves:
            assert np.shares_memory(wave.update_weights, whole.update_weights)
            assert set(wave.finished_at.tolist()) == {time}
            assert wave.device_ids == plan.device_ids[row : row + len(wave)]
            assert wave.n_samples_array().tolist() == plan.n_samples[row : row + len(wave)].tolist()
            for position, outcome in enumerate(wave.materialize()):
                expected = whole.update_at(row + position)
                assert outcome.device_id == expected.device_id == wave.update_at(position).device_id
                assert np.array_equal(outcome.update.weights, expected.weights)
            row += len(wave)
        # Strided views (the phone tier's per-phone queues) address the same rows.
        strided = whole.view(slice(1, 10, 4))
        assert strided.device_ids == ["d0001", "d0005", "d0009"]
        assert strided.update_at(2).device_id == "d0009"
        assert np.array_equal(strided.update_at(1).weights, whole.update_weights[5])
        with pytest.raises(ValueError):
            strided.view(slice(0, 1))


# ----------------------------------------------------------------------
# platform-level differential
# ----------------------------------------------------------------------
def sink_scenario() -> ScenarioSpec:
    """Two tenants: a DeviceFlow one (a block per completion wave) and a
    direct numeric one (a block per plan and round)."""
    return ScenarioSpec(
        name="sink-differential",
        seed=0,
        horizon_s=600.0,
        cluster_nodes=2,
        tenants=[
            TenantSpec(
                name="flow",
                priority=5,
                rounds=2,
                grades=[GradeSpec(grade="High", n_devices=8, bundles=8, n_phones=1)],
                arrival=ArrivalSpec(kind="periodic", count=1, period_s=200.0, offset_s=10.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[3], failure_prob=0.1),
            ),
            TenantSpec(
                name="direct",
                priority=1,
                numeric=True,
                feature_dim=32,
                records_per_device=6,
                rounds=2,
                grades=[GradeSpec(grade="Low", n_devices=6, bundles=6)],
                arrival=ArrivalSpec(kind="trace", times=[20.0]),
            ),
        ],
    )


class TestPlatformDifferential:
    def test_cloud_blocks_report_byte_identical(self):
        block = run_scenario(sink_scenario(), cloud_blocks=True)
        scalar = run_scenario(sink_scenario(), cloud_blocks=False)
        assert block.to_json() == scalar.to_json()

    def test_cloud_blocks_matches_legacy_generator_path(self):
        block = run_scenario(sink_scenario(), batch=True, cloud_blocks=True).to_dict()
        legacy = run_scenario(sink_scenario(), batch=False, cloud_blocks=False).to_dict()
        assert block.pop("batch") is True and legacy.pop("batch") is False
        assert block == legacy
