"""Property-based tests for the exact FedAvg fold.

Delivery relies on one invariant: however a round's update rows are cut
into blocks, and in whatever order the blocks reach the aggregation
service, the fold must produce *bit-identical* results to one flat
:meth:`FedAvgPartial.from_arrays` call over all the rows — and to the
per-update oracle, ``reference.cloud_reference.fedavg`` — for any block
boundaries, any order, empty blocks, one-row blocks and zero-sample
updates.  Hypothesis hunts for partitions that break it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import cloud_reference

from repro.cloud.aggregation import AggregationService, AggregationTrigger
from repro.deviceflow import MessageBlock
from repro.ml import SERVER_BACKEND, LogisticRegressionModel
from repro.ml.fedavg import FedAvgPartial, ModelUpdate, _ExactVectorSum
from repro.simkernel import Simulator


def build_updates(n_updates: int, dim: int, seed: int, with_zero_samples: bool) -> list[ModelUpdate]:
    rng = np.random.default_rng(seed)
    updates = []
    for index in range(n_updates):
        n_samples = int(rng.integers(0 if with_zero_samples else 1, 40))
        updates.append(
            ModelUpdate(
                device_id=f"d{index}",
                round_index=1,
                # Spread magnitudes over many decades so naive summation
                # orders would actually disagree in the low bits.
                weights=rng.normal(size=dim) * 10.0 ** rng.integers(-8, 9),
                bias=float(rng.normal()),
                n_samples=n_samples,
            )
        )
    if all(u.n_samples == 0 for u in updates):
        updates[0].n_samples = 3  # keep the aggregate well-defined
    return updates


def partition(items: list, boundaries: list[int]) -> list[list]:
    bounds = sorted(min(b, len(items)) for b in boundaries)
    edges = [0, *bounds, len(items)]
    return [items[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


def columns(updates: list[ModelUpdate], dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The updates as stacked ``(weights, biases, n_samples)``."""
    return (
        np.array([u.weights for u in updates]).reshape(len(updates), dim),
        np.array([u.bias for u in updates]),
        np.array([u.n_samples for u in updates], dtype=np.int64),
    )


def block_of(updates: list[ModelUpdate], dim: int) -> MessageBlock:
    weights, biases, n_samples = columns(updates, dim)
    return MessageBlock(
        task_id="t",
        round_index=1,
        device_ids=[u.device_id for u in updates],
        n_samples=n_samples,
        update_weights=weights,
        update_biases=biases,
    )


def fold_blocks(parts: list[list[ModelUpdate]], dim: int) -> tuple[np.ndarray, float, int]:
    """Deliver each part as one block to a fresh service and fold once."""
    service = AggregationService(
        Simulator(), AggregationTrigger(), model=LogisticRegressionModel(dim, SERVER_BACKEND)
    )
    for part in parts:
        service.receive_block(block_of(part, dim))
    record = service.aggregate_now()
    return service.model.weights, service.model.bias, record.n_updates


class TestPartitionInvariance:
    @given(
        n_updates=st.integers(min_value=1, max_value=24),
        dim=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        boundaries=st.lists(st.integers(min_value=0, max_value=24), max_size=6),
        shard_order_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_partition_merges_to_flat_fedavg(self, n_updates, dim, seed, boundaries, shard_order_seed):
        updates = build_updates(n_updates, dim, seed, with_zero_samples=False)
        flat_weights, flat_bias = FedAvgPartial.from_arrays(*columns(updates, dim)).finalize()

        parts = partition(updates, boundaries)
        # Arrival order must not matter either.
        order = np.random.default_rng(shard_order_seed).permutation(len(parts))
        merged_weights, merged_bias, n_merged = fold_blocks([parts[i] for i in order], dim)

        assert n_merged == n_updates
        assert merged_weights.tobytes() == flat_weights.tobytes()
        assert np.float64(merged_bias).tobytes() == np.float64(flat_bias).tobytes()
        # ...and one row per block is just another partition.
        row_weights, row_bias, _ = fold_blocks([[u] for u in updates], dim)
        assert row_weights.tobytes() == flat_weights.tobytes() and row_bias == flat_bias

    @given(
        n_updates=st.integers(min_value=1, max_value=16),
        dim=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
        n_empty=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_empty_shards_are_identity(self, n_updates, dim, seed, n_empty):
        updates = build_updates(n_updates, dim, seed, with_zero_samples=False)
        flat_weights, flat_bias = FedAvgPartial.from_arrays(*columns(updates, dim)).finalize()
        merged_weights, merged_bias, n_merged = fold_blocks([updates] + [[]] * n_empty, dim)
        assert n_merged == n_updates
        assert merged_weights.tobytes() == flat_weights.tobytes()
        assert np.float64(merged_bias).tobytes() == np.float64(flat_bias).tobytes()

    @given(
        n_updates=st.integers(min_value=1, max_value=16),
        dim=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
        order_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_from_arrays_matches_from_updates(self, n_updates, dim, seed, order_seed):
        """The stacked fold equals the per-update oracle, in any row order."""
        updates = build_updates(n_updates, dim, seed, with_zero_samples=True)
        oracle_weights, oracle_bias = cloud_reference.fedavg(updates)
        order = np.random.default_rng(order_seed).permutation(n_updates)
        stacked = FedAvgPartial.from_arrays(*columns([updates[i] for i in order], dim))
        assert stacked.finalize()[0].tobytes() == oracle_weights.tobytes()
        assert stacked.finalize()[1] == oracle_bias
        assert stacked.total_samples == sum(u.n_samples for u in updates)
        assert stacked.n_updates == n_updates


class TestLaneTree:
    """``add_rows``' 64-lane sweep and halving tree represent the row-by-row sum exactly."""

    @staticmethod
    def cancellation_rows(n_rows: int, dim: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        magnitudes = rng.choice([1e16, 1.0, 1e-8, 3.0], size=(n_rows, dim))
        return magnitudes * rng.choice([-1.0, 1.0], size=(n_rows, dim)) * rng.uniform(0.5, 1.5, size=(n_rows, dim))

    @pytest.mark.parametrize("n_rows", [1, 127, 128, 129, 1000, 4801])
    def test_add_rows_equals_row_by_row(self, n_rows):
        dim = 9
        rows = self.cancellation_rows(n_rows, dim, seed=n_rows)
        swept, serial = _ExactVectorSum(), _ExactVectorSum()
        swept.add_rows(rows)
        for row in rows:
            serial.add(row)
        assert swept.round_to_float64(dim).tobytes() == serial.round_to_float64(dim).tobytes()
        exact = [math.fsum(rows[:, column]) for column in range(dim)]
        assert swept.round_to_float64(dim).tolist() == exact

    def test_component_count_stays_bounded(self):
        accumulator = _ExactVectorSum()
        for seed, n_rows in enumerate([130, 4801, 129, 1000, 2, 640]):
            accumulator.add_rows(self.cancellation_rows(n_rows, 5, seed))
            assert len(accumulator.components) <= _ExactVectorSum._MAX_COMPONENTS


class TestEdgeCases:
    def test_merge_of_only_empty_partials_cannot_finalize(self):
        empty = FedAvgPartial.from_arrays(np.empty((0, 4)), np.empty(0), np.empty(0, dtype=np.int64))
        assert empty.n_updates == 0
        with pytest.raises(ValueError):
            empty.finalize()

    def test_all_zero_sample_updates_rejected(self):
        with pytest.raises(ValueError):
            FedAvgPartial.from_arrays(np.ones((1, 3)), [0.5], [0]).finalize()

    def test_dimension_mismatch_rejected(self):
        a = ModelUpdate("a", 1, np.ones(3), 0.0, 5)
        b = ModelUpdate("b", 1, np.ones(4), 0.0, 5)
        service = AggregationService(
            Simulator(), AggregationTrigger(), model=LogisticRegressionModel(3, SERVER_BACKEND)
        )
        service.receive_block(block_of([a], 3))
        service.receive_block(block_of([b], 4))
        with pytest.raises(ValueError):
            service.aggregate_now()

    def test_partials_survive_pickling(self):
        import pickle

        updates = build_updates(6, 8, seed=1, with_zero_samples=False)
        partial = FedAvgPartial.from_arrays(*columns(updates, 8))
        restored = pickle.loads(pickle.dumps(partial))
        assert restored.finalize()[0].tobytes() == partial.finalize()[0].tobytes()
        assert restored.total_samples == partial.total_samples
