"""Differential suite: numeric wave-scheduled rounds equal the per-device oracle.

The logical tier runs a numeric (ML-executing) plan as stacked per-wave
blocks; ``reference.tier_reference`` keeps the per-actor generator loop it
replaced.  Both must produce *bit-identical* global weights, per-device
outcomes (update weights/biases, sample counts, payloads), completion
times and final random-stream states for the same seed, across multiple
rounds with FedAvg feedback between them.
"""

import numpy as np
import pytest
from helpers import CallbackSink, WholePlanSink, stream_states
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.cloud_reference import fedavg
from reference.tier_reference import ReferenceLogicalSimulation, run_per_event

from repro.cluster import (
    DeviceColumns,
    GradeExecutionPlan,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    ResourceBundle,
)
from repro.data.avazu import DeviceDataset
from repro.ml import standard_fl_flow
from repro.simkernel import RandomStreams, Simulator

NODES = [NodeSpec(cpus=10, memory_gb=20)] * 4
COST = LogicalCostModel(alpha={"Std": 11.0, "Bulk": 7.0}, actor_startup=0.5, runner_setup=4.0)
FEATURE_DIM = 32
MODEL_BYTES = 4096
N_DEVICES = 24  # 8 actors -> 3 waves
N_ACTORS = 8
N_ROUNDS = 3
SEED = 5


def make_numeric_plan(n_devices: int = N_DEVICES, n_actors: int = N_ACTORS) -> GradeExecutionPlan:
    rng = np.random.default_rng(99)
    shards = []
    for i in range(n_devices):
        features = rng.integers(0, FEATURE_DIM, size=(12, 4)).astype(np.int32)
        labels = rng.integers(0, 2, size=12).astype(np.int8)
        shards.append(DeviceDataset(f"d{i:04d}", features, labels))
    return GradeExecutionPlan(
        grade="Std",
        devices=DeviceColumns.of_shards(shards),
        n_actors=n_actors,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=standard_fl_flow(epochs=2, batch_size=8),
        feature_dim=FEATURE_DIM,
        numeric=True,
    )


def run_tier(reference: bool, n_rounds: int = N_ROUNDS, n_devices: int = N_DEVICES,
             n_actors: int = N_ACTORS, sink_class=CallbackSink):
    """Drive ``n_rounds`` with FedAvg feedback on one logical tier.

    ``reference`` picks the per-device oracle (stepped one event at a
    time) over the production tier.  Returns ``(per_round_outcomes,
    weights_history, round_spans, stream_states)`` where outcomes are in
    emission order and a span is a round's ``(started_at, finished_at,
    aborted)``.  ``sink_class=None`` runs with ``sink=None``: nothing is
    delivered, so no outcome is seen and the global model stays at zero.
    """
    sim = Simulator()
    tier = ReferenceLogicalSimulation if reference else LogicalSimulation
    streams = RandomStreams(SEED)
    logical = tier(sim, K8sCluster(NODES), COST, streams=streams)
    plan = make_numeric_plan(n_devices, n_actors)
    per_round, weights_history, spans = [], [], []

    def driver():
        yield sim.process(logical.prepare([plan], task_id="task"))
        weights, bias = np.zeros(FEATURE_DIM), 0.0
        for round_index in range(1, n_rounds + 1):
            outcomes = []
            sink = None if sink_class is None else sink_class(outcomes.append)
            started = sim.now
            aborted = yield sim.process(logical.run_round(round_index, weights, bias, MODEL_BYTES, sink))
            spans.append((started, sim.now, aborted))
            per_round.append(outcomes)
            if outcomes:
                weights, bias = fedavg([o.update for o in outcomes])
            weights_history.append((weights, bias))

    sim.process(driver())
    if reference:
        run_per_event(sim)
    else:
        sim.run()
    logical.teardown()
    return per_round, weights_history, spans, stream_states(streams)


def assert_outcomes_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for a, b in zip(reference, candidate):
        assert a.device_id == b.device_id
        assert a.finished_at == b.finished_at  # bit-identical floats
        assert a.payload_bytes == b.payload_bytes
        assert a.n_samples == b.n_samples
        assert a.update is not None and b.update is not None
        assert a.update.weights.tobytes() == b.update.weights.tobytes()
        assert np.float64(a.update.bias).tobytes() == np.float64(b.update.bias).tobytes()


@pytest.fixture(scope="module")
def generator_reference():
    return run_tier(reference=True)


class TestBatchedNumericEquivalence:
    def test_batched_path_bit_identical(self, generator_reference):
        ref_rounds, ref_weights, ref_spans, ref_streams = generator_reference
        bat_rounds, bat_weights, bat_spans, bat_streams = run_tier(reference=False)
        for ref, bat in zip(ref_rounds, bat_rounds):
            assert_outcomes_identical(ref, bat)
        for (rw, rb), (bw, bb) in zip(ref_weights, bat_weights):
            assert rw.tobytes() == bw.tobytes()
            assert np.float64(rb).tobytes() == np.float64(bb).tobytes()
        assert ref_spans == bat_spans
        assert ref_streams == bat_streams

    def test_columnar_blocks_materialize_identically(self, generator_reference):
        ref_rounds, ref_weights, _, _ = generator_reference
        sinks = []

        def whole_plan(callback):
            sinks.append(WholePlanSink(callback))
            return sinks[-1]

        col_rounds, col_weights, _, _ = run_tier(reference=False, sink_class=whole_plan)
        assert [len(sink.blocks) for sink in sinks] == [1] * N_ROUNDS
        for ref, col in zip(ref_rounds, col_rounds):
            assert_outcomes_identical(ref, col)
        for (rw, rb), (cw, cb) in zip(ref_weights, col_weights):
            assert rw.tobytes() == cw.tobytes()
            assert rb == cb


class TestOneEngineAnyShape:
    """The shared round engine against the oracle, whatever the plan's shape.

    More actors than devices (idle slots), a short last wave, and all three
    deliveries: a ``prefers_waves`` sink, a whole-plan sink, ``sink=None``.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        n_devices=st.integers(min_value=1, max_value=13),
        n_actors=st.integers(min_value=1, max_value=16),
        delivery=st.sampled_from([CallbackSink, WholePlanSink, None]),
    )
    def test_logical_rounds_equal_the_oracle(self, n_devices, n_actors, delivery):
        shape = {"n_rounds": 2, "n_devices": n_devices, "n_actors": n_actors}
        ref_rounds, ref_weights, ref_spans, ref_streams = run_tier(reference=True, **shape)
        got_rounds, got_weights, got_spans, got_streams = run_tier(reference=False, sink_class=delivery, **shape)
        if delivery is None:
            assert got_rounds == [[], []]
        else:
            for ref, got in zip(ref_rounds, got_rounds):
                assert_outcomes_identical(ref, got)
            for (rw, rb), (gw, gb) in zip(ref_weights, got_weights):
                assert rw.tobytes() == gw.tobytes() and rb == gb
        # Delivered or not, a round takes the same time and the same draws.
        assert ref_spans == got_spans
        assert not any(aborted for _, _, aborted in got_spans)
        assert ref_streams == got_streams


class TestMixedPlanRound:
    """Regression: numeric execution is decided per plan, not per round.

    One numeric plan and one time-only plan share a round; the numeric
    plan must produce updates while the time-only plan stays a bare
    one-deadline block.
    """

    @staticmethod
    def _mixed_plans():
        numeric = make_numeric_plan(n_devices=8, n_actors=4)
        time_only = GradeExecutionPlan(
            grade="Bulk",
            devices=DeviceColumns([f"t{i:04d}" for i in range(12)], [10] * 12),
            n_actors=4,
            bundle=ResourceBundle(cpus=1, memory_gb=1),
            flow=standard_fl_flow(),
            numeric=False,
        )
        return [numeric, time_only]

    def _run(self, reference: bool):
        sim = Simulator()
        tier = ReferenceLogicalSimulation if reference else LogicalSimulation
        logical = tier(sim, K8sCluster(NODES), COST, streams=RandomStreams(SEED))
        outcomes = []
        sink = WholePlanSink(outcomes.append)

        def driver():
            yield sim.process(logical.prepare(self._mixed_plans(), task_id="task"))
            yield sim.process(
                logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, sink)
            )

        sim.process(driver())
        if reference:
            run_per_event(sim)
        else:
            sim.run()
        logical.teardown()
        return outcomes, sink.blocks, sim.now

    def test_unsharded_mixed_round_matches_generator(self):
        reference, _, reference_end = self._run(reference=True)
        batched, blocks, batched_end = self._run(reference=False)
        assert len(batched) == len(reference) == 20
        # Both plans went columnar, and only the numeric one carries updates.
        assert len(blocks) == 2
        update_flags = {block.grade: block.update_weights is not None for block in blocks}
        assert update_flags == {"Std": True, "Bulk": False}
        ref_sorted = sorted(reference, key=lambda o: (o.finished_at, o.device_id))
        bat_sorted = sorted(batched, key=lambda o: (o.finished_at, o.device_id))
        for a, b in zip(ref_sorted, bat_sorted):
            assert a.device_id == b.device_id
            assert a.finished_at == b.finished_at
            assert (a.update is None) == (b.update is None)
            if a.update is not None:
                assert a.update.weights.tobytes() == b.update.weights.tobytes()
        assert reference_end == batched_end
