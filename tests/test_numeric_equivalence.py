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
from reference.tier_reference import ReferenceLogicalSimulation, all_outcomes, run_per_event

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


def run_tier(reference: bool, n_rounds: int = N_ROUNDS, collect: bool = True,
             n_devices: int = N_DEVICES, n_actors: int = N_ACTORS, sink_class=CallbackSink):
    """Drive ``n_rounds`` with FedAvg feedback on one logical tier.

    ``reference`` picks the per-device oracle (stepped one event at a
    time) over the production tier.  Returns ``(per_round_outcomes,
    weights_history, round_results, stream_states)`` where outcomes are in
    emission order.  ``collect=False`` runs with ``sink=None`` and reads
    the recorded blocks instead.
    """
    sim = Simulator()
    tier = ReferenceLogicalSimulation if reference else LogicalSimulation
    streams = RandomStreams(SEED)
    logical = tier(sim, K8sCluster(NODES), COST, streams=streams)
    plan = make_numeric_plan(n_devices, n_actors)
    per_round, weights_history = [], []

    def driver():
        yield sim.process(logical.prepare([plan], task_id="task"))
        weights, bias = np.zeros(FEATURE_DIM), 0.0
        for round_index in range(1, n_rounds + 1):
            outcomes = []
            yield sim.process(
                logical.run_round(
                    round_index, weights, bias, MODEL_BYTES, sink_class(outcomes.append) if collect else None
                )
            )
            round_result = logical.rounds[-1]
            if not collect:
                outcomes = all_outcomes(round_result)
            per_round.append(outcomes)
            weights, bias = fedavg([o.update for o in outcomes])
            weights_history.append((weights, bias))

    sim.process(driver())
    if reference:
        run_per_event(sim)
    else:
        sim.run()
    logical.teardown()
    return per_round, weights_history, logical.rounds, stream_states(streams)


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
        ref_rounds, ref_weights, ref_results, ref_streams = generator_reference
        bat_rounds, bat_weights, bat_results, bat_streams = run_tier(reference=False)
        for ref, bat in zip(ref_rounds, bat_rounds):
            assert_outcomes_identical(ref, bat)
        for (rw, rb), (bw, bb) in zip(ref_weights, bat_weights):
            assert rw.tobytes() == bw.tobytes()
            assert np.float64(rb).tobytes() == np.float64(bb).tobytes()
        for ref, bat in zip(ref_results, bat_results):
            assert ref.started_at == bat.started_at
            assert ref.finished_at == bat.finished_at
        assert ref_streams == bat_streams

    def test_columnar_blocks_materialize_identically(self, generator_reference):
        ref_rounds, ref_weights, _, _ = generator_reference
        col_rounds, col_weights, col_results, _ = run_tier(reference=False, collect=False)
        assert all(len(result.columnar) == 1 for result in col_results)
        for ref, col in zip(ref_rounds, col_rounds):
            assert_outcomes_identical(ref, col)
        for (rw, rb), (cw, cb) in zip(ref_weights, col_weights):
            assert rw.tobytes() == cw.tobytes()
            assert rb == cb

    def test_columnar_fedavg_inputs_match_updates(self):
        _, _, col_results, _ = run_tier(reference=False, collect=False, n_rounds=1)
        weights, biases, n_samples = col_results[0].fedavg_inputs()
        materialized = all_outcomes(col_results[0])
        assert weights.shape == (N_DEVICES, FEATURE_DIM)
        for row, outcome in enumerate(materialized):
            assert weights[row].tobytes() == outcome.update.weights.tobytes()
            assert float(biases[row]) == outcome.update.bias
            assert int(n_samples[row]) == outcome.n_samples


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
        ref_rounds, ref_weights, ref_results, ref_streams = run_tier(reference=True, **shape)
        got_rounds, got_weights, got_results, got_streams = run_tier(
            reference=False, collect=delivery is not None, sink_class=delivery, **shape
        )
        for ref, got in zip(ref_rounds, got_rounds):
            assert_outcomes_identical(ref, got)
        for (rw, rb), (gw, gb) in zip(ref_weights, got_weights):
            assert rw.tobytes() == gw.tobytes() and rb == gb
        for ref, got in zip(ref_results, got_results):
            assert (ref.started_at, ref.finished_at, ref.n_devices) == (
                got.started_at, got.finished_at, got.n_devices
            )
            assert not got.aborted
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

        def driver():
            yield sim.process(logical.prepare(self._mixed_plans(), task_id="task"))
            yield sim.process(
                logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, None)
            )

        sim.process(driver())
        if reference:
            run_per_event(sim)
        else:
            sim.run()
        logical.teardown()
        return logical.rounds[0]

    def test_unsharded_mixed_round_matches_generator(self):
        reference = self._run(reference=True)
        batched = self._run(reference=False)
        assert batched.n_devices == reference.n_devices == 20
        # Both plans went columnar, and only the numeric one carries updates.
        assert len(batched.columnar) == 2
        update_flags = {block.grade: block.update_weights is not None for block in batched.columnar}
        assert update_flags == {"Std": True, "Bulk": False}
        ref_sorted = sorted(reference.outcomes, key=lambda o: (o.finished_at, o.device_id))
        bat_sorted = sorted(all_outcomes(batched), key=lambda o: (o.finished_at, o.device_id))
        for a, b in zip(ref_sorted, bat_sorted):
            assert a.device_id == b.device_id
            assert a.finished_at == b.finished_at
            assert (a.update is None) == (b.update is None)
            if a.update is not None:
                assert a.update.weights.tobytes() == b.update.weights.tobytes()
        assert reference.finished_at == batched.finished_at
