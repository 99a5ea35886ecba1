"""The OutcomeSink contract and the block-vs-per-upload ingestion differential.

Three layers of the same guarantee:

1. Protocol mechanics — structural ``isinstance`` checks, the wave /
   plan granularity a ``CloudIngestSink`` asks for.
2. Tier level — a ``LogicalSimulation`` round delivered to a
   ``CloudIngestSink`` as one block leaves the aggregation service
   bit-identical to the per-device reference tier streaming one ``accept``
   per device into the per-upload oracle (``reference.cloud_reference``).
3. Identity — the block the fold receives *is* the block the tier built
   (a channel's upload is a view of it): nothing on the way converts.
4. Shelved ahead — a rule-based task's channel hands its uploads to the
   shelf as dated rows, with no kernel event per upload, and a realtime
   task's still gets one.

(Platform level: the report digests pinned in ``tests/test_scenarios.py``
were taken where block and scalar ingestion were proven byte-identical.)
"""

import gc
import weakref

import numpy as np
import pytest
from helpers import CallbackSink
from reference.cloud_reference import ReferenceAggregationService, ReferenceIngestSink, ReferenceStorage
from reference.tier_reference import ReferenceLogicalSimulation, materialize, run_per_event

from repro import GradeRequirement, PlatformConfig, SimDC, TaskSpec, TaskState
from repro.cloud import (
    AggregationService,
    ChannelModel,
    CloudIngestSink,
    OutcomeSink,
    TransportChannel,
)
from repro.cloud.aggregation import AggregationTrigger
from repro.cluster import (
    DeviceColumns,
    GradeExecutionPlan,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    ResourceBundle,
)
from repro.cluster import rounds
from repro.data.avazu import DeviceDataset
from repro.deviceflow import DeviceFlow, MessageBlock, RealTimeAccumulatedStrategy, TimePoint, TimePointStrategy
from repro.ml import SERVER_BACKEND, Operator, OperatorFlow, standard_fl_flow
from repro.ml.operators import DownloadModelOp, TrainOp, UploadUpdateOp
from repro.ml.model import LogisticRegressionModel
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
            def accept_block(self, block):
                pass

        class Missing:
            def accept(self, outcome):
                pass

        assert isinstance(Good(), OutcomeSink)
        assert not isinstance(Missing(), OutcomeSink)
        assert isinstance(CallbackSink(lambda o: None), OutcomeSink)
        sim = Simulator()
        sink = CloudIngestSink(sim, AggregationService(sim, AggregationTrigger()))
        assert isinstance(sink, OutcomeSink)

    def test_flow_connected_sink_takes_wave_blocks(self):
        sim = Simulator()
        service = AggregationService(sim, AggregationTrigger())
        flow = DeviceFlow(sim, RandomStreams(0))
        sink = CloudIngestSink(sim, service, deviceflow=flow)
        flow.register_task("t", RealTimeAccumulatedStrategy(thresholds=[1]), sink.flow_receive)
        # Traffic shaping must see arrivals mid-round: blocks, but per wave.
        assert sink.prefers_waves is True
        direct = CloudIngestSink(sim, service)
        assert direct.prefers_waves is False


# ----------------------------------------------------------------------
# tier-level differential
# ----------------------------------------------------------------------
def make_plan(n_devices=12, n_actors=4, numeric=True):
    rng = np.random.default_rng(17)
    shards = []
    for i in range(n_devices):
        features = rng.integers(0, FEATURE_DIM, size=(10, 4)).astype(np.int32)
        labels = rng.integers(0, 2, size=10).astype(np.int8)
        shards.append(DeviceDataset(f"d{i:04d}", features, labels))
    devices = DeviceColumns.of_shards(shards)
    return GradeExecutionPlan(
        grade="Std",
        devices=devices if numeric else DeviceColumns(devices.device_ids, devices.n_samples),
        n_actors=n_actors,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=standard_fl_flow(epochs=1, batch_size=8),
        feature_dim=FEATURE_DIM,
        numeric=numeric,
    )


def run_tier_round(reference, channel=None, received=None):
    """One numeric round delivered through a CloudIngestSink; returns ``(service, record, handed)``.

    The production tier hands the production sink one block; the
    per-device reference tier streams one ``accept`` per device into the
    per-upload oracle.  ``channel`` fronts the production sink with a
    ``TransportChannel``; ``received`` collects what the fold is handed;
    ``handed`` lists what the tier handed the outermost sink.
    """
    sim = Simulator()
    tier = ReferenceLogicalSimulation if reference else LogicalSimulation
    logical = tier(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))
    model = LogisticRegressionModel(FEATURE_DIM, SERVER_BACKEND)
    if reference:
        storage = ReferenceStorage()
        service = ReferenceAggregationService(sim, storage, AggregationTrigger(), model=model)
        sink = ReferenceIngestSink(sim, "t", storage, service)
    else:
        service = AggregationService(sim, AggregationTrigger(), model=model)
        if received is not None:
            fold = service.receive_block

            def spy(block):
                received.append(block)
                fold(block)

            service.receive_block = spy
        sink = CloudIngestSink(sim, service, dedup=channel is not None)
        if channel is not None:
            sink = TransportChannel(sim, channel, sink, RandomStreams(5), scope="")
    handed = []
    if not reference:
        accept = sink.accept_block

        def hand(block):
            handed.append(block)
            accept(block)

        sink.accept_block = hand
    plan = make_plan()

    def drive():
        yield sim.process(logical.prepare([plan], task_id="t"))
        yield sim.process(
            logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, sink)
        )

    sim.process(drive())
    if reference:
        run_per_event(sim)
    else:
        sim.run()
    record = service.aggregate_now()
    logical.teardown()
    return service, record, handed


class TestTierDifferential:
    def test_block_and_scalar_ingestion_identical(self):
        service_s, record_s, _ = run_tier_round(reference=True)
        service_b, record_b, _ = run_tier_round(reference=False)

        # Aggregation: same fold, bit-identical model.
        assert np.array_equal(service_b.model.weights, service_s.model.weights)
        assert service_b.model.bias == service_s.model.bias
        assert record_b.n_updates == record_s.n_updates
        assert record_b.n_samples == record_s.n_samples
        assert record_b.time == record_s.time
        assert service_b.messages_received == service_s.messages_received
        assert service_b.bytes_received == service_s.bytes_received

    def test_the_fold_receives_the_block_the_tier_built(self):
        # Direct and ungated: one object from TierRounds to receive_block.
        received = []
        *_, handed = run_tier_round(reference=False, received=received)
        (plan_block,) = handed
        assert len(received) == 1 and received[0] is plan_block
        assert plan_block.task_id == "t" and plan_block.update_weights is not None

    def test_a_channel_upload_is_a_one_row_view_of_the_tier_block(self):
        # Lossy: each delivery is ``block[row : row + 1]`` with the arrival as
        # its time column — the update rows are never copied on the way.
        lossy = ChannelModel(latency_s=0.2, jitter_s=0.5, loss_prob=0.3, dup_prob=0.3, retry_base_s=0.5)
        received = []
        _, record, handed = run_tier_round(reference=False, channel=lossy, received=received)
        (plan_block,) = handed
        assert 1 < len(received) == record.n_updates <= len(plan_block)
        for upload in received:
            assert len(upload) == 1
            assert np.shares_memory(upload.update_weights, plan_block.update_weights)
            assert np.shares_memory(upload.n_samples, plan_block.n_samples)
            row = plan_block.device_ids.index(upload.device_ids[0])
            assert np.array_equal(upload.update_weights[0], plan_block.update_weights[row])
            assert upload.finished_at[0] > plan_block.finished_at[row]  # arrival, not completion
            assert not np.shares_memory(upload.finished_at, plan_block.finished_at)

    def test_callback_sink_materializes_blocks_in_completion_order(self):
        # The CallbackSink helper, handed wave blocks by the production
        # tier, must observe the same per-device stream the reference tier
        # hands it one device at a time.
        block_seen, scalar_seen = [], []
        for collect, tier in ((block_seen, LogicalSimulation), (scalar_seen, ReferenceLogicalSimulation)):
            sim = Simulator()
            logical = tier(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))
            plan = make_plan(numeric=False)
            sink = CallbackSink(collect.append)

            def drive():
                yield sim.process(logical.prepare([plan], task_id="t"))
                yield sim.process(logical.run_round(1, None, 0.0, 0, sink))

            sim.process(drive())
            run_per_event(sim)
            logical.teardown()
        assert [o.device_id for o in block_seen] == [o.device_id for o in scalar_seen]
        assert [o.finished_at for o in block_seen] == [o.finished_at for o in scalar_seen]

    def test_wave_preferring_sink_gets_row_views_at_wave_times(self, monkeypatch):
        """``prefers_waves`` turns one plan block into one zero-copy row range per wave."""
        built = []

        def build(**columns):
            built.append(MessageBlock(**columns))
            return built[-1]

        monkeypatch.setattr(rounds, "MessageBlock", build)

        class WaveSink:
            prefers_waves = True

            def __init__(self, sim):
                self.sim, self.waves = sim, []

            def accept_block(self, block):
                self.waves.append((self.sim.now, block))

        sim = Simulator()
        logical = LogicalSimulation(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))
        sink = WaveSink(sim)
        plan = make_plan(n_devices=10, n_actors=4)

        def drive():
            yield sim.process(logical.prepare([plan], task_id="t"))
            yield sim.process(logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, sink))

        sim.process(drive())
        sim.run()
        logical.teardown()
        (whole,) = built
        assert [len(wave) for _, wave in sink.waves] == [4, 4, 2]
        row = 0
        for time, wave in sink.waves:
            assert np.shares_memory(wave.update_weights, whole.update_weights)
            assert set(wave.finished_at.tolist()) == {time}
            assert wave.device_ids == plan.devices.device_ids[row : row + len(wave)]
            assert wave.n_samples.tolist() == plan.devices.n_samples[row : row + len(wave)].tolist()
            for position, outcome in enumerate(materialize(wave)):
                assert outcome.device_id == whole.device_ids[row + position]
                assert np.array_equal(outcome.update.weights, whole.update_weights[row + position])
            row += len(wave)
        # Strided row ranges (the phone tier's per-phone queues) address the same
        # rows, and a range of a range is a range: one row of a wave is a block.
        strided = whole[1:10:4]
        assert strided.device_ids == ["d0001", "d0005", "d0009"]
        assert np.shares_memory(strided.update_weights, whole.update_weights)
        one = strided[1:2]
        assert one.device_ids == ["d0005"] and len(one) == 1
        assert np.array_equal(one.update_weights[0], whole.update_weights[5])
        assert (one.n_samples[0], one.finished_at[0]) == (plan.devices.n_samples[5], whole.finished_at[5])


# ----------------------------------------------------------------------
# a channel upload is a one-row segment of the round's copy of the plan block
# ----------------------------------------------------------------------
def returned(generator):
    """The return value of a generator that has nothing left to wait for."""
    try:
        next(generator)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("the round still had deliveries in flight")


class TestChannelSegments:
    def run_flow_round(self, monkeypatch):
        """One numeric round through a lossy channel in front of a flow-connected sink.

        Returns the channel, the rows of each delivered run, the blocks
        derived (and, of those, the gate's survivor selections) and weak
        references to every block the channel delivered rows of.
        """
        counts = {"derived": 0, "compressed": 0}
        derive, compress = MessageBlock._derive, MessageBlock.compress

        def counted_derive(self, *args):
            counts["derived"] += 1
            return derive(self, *args)

        def counted_compress(self, keep):
            counts["compressed"] += 1
            return compress(self, keep)

        monkeypatch.setattr(MessageBlock, "_derive", counted_derive)
        monkeypatch.setattr(MessageBlock, "compress", counted_compress)
        sim = Simulator()
        logical = LogicalSimulation(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))
        model = LogisticRegressionModel(FEATURE_DIM, SERVER_BACKEND)
        service = AggregationService(sim, AggregationTrigger(), model=model)
        flow = DeviceFlow(sim, RandomStreams(0), capacity_per_second=200.0)
        sink = CloudIngestSink(sim, service, deviceflow=flow, dedup=True)
        runs = []

        def downstream(block):
            runs.append(len(block))
            sink.flow_receive(block)

        flow.register_task("t", RealTimeAccumulatedStrategy(thresholds=[4]), downstream)
        lossy = ChannelModel(latency_s=0.2, jitter_s=0.5, loss_prob=0.2, dup_prob=0.3, retry_base_s=0.5)
        channel = TransportChannel(sim, lossy, sink, RandomStreams(5), scope="")
        parents = {}
        accept = sink.accept_block

        def spy(upload):
            parents[id(upload.parent)] = weakref.ref(upload.parent)
            accept(upload)

        sink.accept_block = spy
        plan = make_plan(n_devices=40, n_actors=4)

        def drive():
            yield sim.process(logical.prepare([plan], task_id="t"))
            flow.round_started("t", 1)
            channel.begin_round(1)
            yield sim.process(logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, channel))

        sim.process(drive())
        sim.run()
        flow.round_completed("t", 1)
        sim.run()
        logical.teardown()
        return channel, runs, counts, list(parents.values())

    def test_a_flow_connected_lossy_round_derives_one_block_per_delivered_run(self, monkeypatch):
        channel, runs, counts, _ = self.run_flow_round(monkeypatch)
        uploads = channel.round.delivered + channel.round.duplicates
        assert sum(runs) <= uploads and 2 * len(runs) < uploads  # runs of several uploads each
        # One gather per delivered run, the round's one copy of the plan block,
        # and a survivor selection where the gate dropped a duplicate: no block per upload.
        assert counts["derived"] <= len(runs) + 1 + counts["compressed"]

    def test_the_channel_holds_no_arrivals_copy_after_finish_round(self, monkeypatch):
        channel, _, _, copies = self.run_flow_round(monkeypatch)
        assert len(channel._arrivals) == len(copies) == 1  # one copy for the plan's every wave
        returned(channel.finish_round())
        assert channel._arrivals == {}
        gc.collect()
        assert [copy() for copy in copies] == [None]


# ----------------------------------------------------------------------
# a rule-based task's uploads are shelved ahead: no kernel event per upload
# ----------------------------------------------------------------------
class TestShelvedAhead:
    LOSSY = ChannelModel(latency_s=0.2, jitter_s=0.5, loss_prob=0.2, dup_prob=0.3, retry_base_s=0.5)

    def run_round(self, strategy):
        """One numeric round through a lossy channel into a flow-connected sink, pushes counted.

        Returns the channel, the shelf, the counts and what held after ``finish_round``.
        """
        sim = Simulator()
        counts = {"deliver": 0, "sentinel": 0, "accept_block": 0}
        schedule_at = sim.schedule_at

        def counted_at(time, callback, *args, seq=None):
            if getattr(callback, "__name__", "") == "_deliver":
                counts["deliver" if seq is None else "sentinel"] += 1
            return schedule_at(time, callback, *args, seq=seq)

        sim.schedule_at = counted_at
        logical = LogicalSimulation(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))
        model = LogisticRegressionModel(FEATURE_DIM, SERVER_BACKEND)
        service = AggregationService(sim, AggregationTrigger(), model=model)
        flow = DeviceFlow(sim, RandomStreams(0), capacity_per_second=200.0)
        sink = CloudIngestSink(sim, service, deviceflow=flow, dedup=True)
        flow.register_task("t", strategy, sink.flow_receive)
        channel = TransportChannel(sim, self.LOSSY, sink, RandomStreams(5), scope="")
        accept = channel.accept_block

        def counted_accept(block):
            counts["accept_block"] += 1
            accept(block)

        channel.accept_block = counted_accept
        after = {}

        def drive():
            yield sim.process(logical.prepare([make_plan(n_devices=40, n_actors=4)], task_id="t"))
            flow.round_started("t", 1)
            channel.begin_round(1)
            yield sim.process(logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, channel))
            yield from channel.finish_round()
            after.update(copies=dict(channel._arrivals), received=flow.stats("t").received)
            flow.round_completed("t", 1)

        sim.process(drive())
        sim.run()
        logical.teardown()
        return channel, flow.dispatcher_for("t").shelf, counts, after

    def test_a_time_point_round_pushes_no_delivery_event_and_one_sentinel_at_most_per_hand_over(self):
        channel, shelf, counts, after = self.run_round(TimePointStrategy([TimePoint(0.0, 15), TimePoint(1.0, 100)]))
        uploads = channel.round.delivered + channel.round.duplicates
        assert uploads > counts["accept_block"] > 1
        assert counts["deliver"] == 0
        assert 1 <= counts["sentinel"] <= counts["accept_block"]
        # Once the round's uploads are in, every one has landed on the first read and the copies are gone.
        assert after == {"copies": {}, "received": uploads}
        assert shelf._ahead == [] and shelf.total_stored == uploads

    def test_a_realtime_round_still_gets_one_event_per_upload(self):
        channel, shelf, counts, after = self.run_round(RealTimeAccumulatedStrategy(thresholds=[4]))
        uploads = channel.round.delivered + channel.round.duplicates
        assert counts["deliver"] == uploads and counts["sentinel"] == 0
        assert after == {"copies": {}, "received": uploads}

    @pytest.mark.parametrize(
        "strategy",
        [lambda: TimePointStrategy([TimePoint(0.0, 10)]), lambda: RealTimeAccumulatedStrategy([10])],
        ids=["time_points", "realtime"],
    )
    def test_rows_still_on_their_way_go_with_a_force_unregistered_task(self, strategy):
        """Rows in flight go with the shelf: nothing of theirs reaches ``submit_block`` after unregistering.

        A rule-based shelf holds them ahead; a realtime task's arrive as channel
        deliveries, which are dropped and settled instead of raising ``KeyError``.
        """
        sim = Simulator()
        flow = DeviceFlow(sim, RandomStreams(0))
        sink = CloudIngestSink(sim, AggregationService(sim, AggregationTrigger()), deviceflow=flow, dedup=True)
        flow.register_task("t", strategy(), sink.flow_receive)
        channel = TransportChannel(sim, ChannelModel(latency_s=5.0, jitter_s=1.0), sink, RandomStreams(1), scope="")
        channel.begin_round(1)
        block = MessageBlock(task_id="t", round_index=1, device_ids=["a", "b", "c"], finished_at=np.arange(3.0))
        sim.schedule_at(1.0, channel.accept_block, block)
        sim.schedule_at(3.0, flow.force_unregister, "t")
        sim.run()
        assert flow.task_ids == [] and sim.now > 6.0
        assert returned(channel.finish_round()).delivered == 3

    def test_a_failing_task_that_shelves_ahead_leaves_nothing_harmful_scheduled(self):
        platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2, channel=self.LOSSY))
        specs = []
        for name, victim in (("crashy", "dev-000004"), ("healthy", None)):
            operators = [DownloadModelOp(), TrainOp(epochs=1), UploadUpdateOp()]
            if victim is not None:
                operators.insert(1, CrashInRound(victim, 2))
            spec = TaskSpec(
                name=name,
                grades=[
                    GradeRequirement(
                        grade="High", n_devices=6, bundles=8, n_phones=1, device_cpus=2, device_memory_gb=2
                    )
                ],
                rounds=2,
                flow=OperatorFlow(operators),
                feature_dim=64,
                records_per_device=8,
                deviceflow_strategy=TimePointStrategy([TimePoint(0.0, 100)]),
            )
            platform.submit(spec, fixed_allocation={"High": 3})
            specs.append(spec)
        platform.run_until_idle(max_time=1e7)
        platform.run()  # whatever the dead task left scheduled must be harmless
        crashed, healthy = (platform.result(spec.task_id) for spec in specs)
        assert crashed.state is TaskState.FAILED and "crashed in round 2" in crashed.error
        assert len(crashed.rounds) == 0 and crashed.finished_at > 0.0
        assert healthy.state is TaskState.COMPLETED and [r.n_updates for r in healthy.rounds] == [6, 6]
        assert platform.deviceflow.task_ids == []


class CrashInRound(Operator):
    """Crashes the round-``round_index`` block that holds ``victim``."""

    name = "crash"
    work = 0.1

    def __init__(self, victim: str, round_index: int) -> None:
        self.victim, self.round_index, self.seen = victim, round_index, 0

    def apply_block(self, block) -> None:
        if self.victim in block.device_ids:
            self.seen += 1
            if self.seen == self.round_index:
                raise RuntimeError(f"operator crashed in round {self.round_index}")
