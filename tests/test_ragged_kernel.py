"""The ragged numeric kernel: one pass over a block of mixed shard sizes.

A block's shards are one row stack (:class:`repro.ml.RaggedShards`), so
training, scoring and metrics run once per step however many distinct
shard sizes the block holds.  Every device's segment must still equal
the per-device oracle in ``reference.ml_reference`` bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ml_reference

from repro.data.avazu import DeviceDataset
from repro.ml import (
    DEVICE_BACKEND,
    SERVER_BACKEND,
    SGD,
    BlockOperatorContext,
    NumericBackend,
    RaggedShards,
    block_metrics,
    standard_fl_flow,
)
from repro.ml.metrics import roc_auc_block
from repro.ml.ragged import segment_sums

DIM = 24
BACKENDS = st.sampled_from([SERVER_BACKEND, DEVICE_BACKEND])
#: How a block hands out shuffling generators: none at all, some rows without one, or every row seeded.
RNG_MODES = st.sampled_from(["none", "mixed", "seeded"])


def random_shard(rng, device_id, n_records):
    features = rng.integers(0, DIM, size=(n_records, 4)).astype(np.int32)
    labels = rng.integers(0, 2, size=n_records).astype(np.int8)
    return DeviceDataset(device_id, features, labels)


def block_rngs(mode, seed, n_rows):
    """The block's ``rngs`` and, separately built, each row's generator for the oracle."""
    if mode == "none":
        return None, [None] * n_rows
    lists = [
        [np.random.default_rng((seed, row)) if mode == "seeded" or row % 2 == 0 else None for row in range(n_rows)]
        for _ in range(2)
    ]
    return lists[0], lists[1]


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


class TestRaggedTrainingEqualsReference:
    @given(
        backend=BACKENDS,
        sizes=st.lists(st.integers(min_value=0, max_value=70), min_size=1, max_size=8),
        batch_size=st.sampled_from([1, 8, 32]),
        epochs=st.integers(min_value=1, max_value=3),
        mode=RNG_MODES,
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_scalar_sgd(self, backend, sizes, batch_size, epochs, mode, seed):
        rng = np.random.default_rng(seed)
        shards = [random_shard(rng, f"d{row}", size) for row, size in enumerate(sizes)]
        weights = rng.normal(scale=0.1, size=(len(sizes), DIM))
        biases = rng.normal(scale=0.1, size=len(sizes))
        optimizer = SGD(learning_rate=0.05, batch_size=batch_size)
        rngs, row_rngs = block_rngs(mode, seed, len(sizes))
        trained_weights, trained_biases = optimizer.run_epochs_block(
            weights, biases, RaggedShards.of(shards), epochs, rngs, backend
        )
        for row, shard in enumerate(shards):
            expected_weights, expected_bias = ml_reference.run_epochs(
                optimizer, weights[row], biases[row], shard.features, shard.labels, epochs,
                rng=row_rngs[row], backend=backend,
            )
            assert bits(expected_weights) == bits(trained_weights[row])
            assert bits(expected_bias) == bits(trained_biases[row])

    @given(
        backend=BACKENDS,
        sizes=st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=8),
        batch_size=st.sampled_from([1, 8, 32]),
        epochs=st.integers(min_value=1, max_value=3),
        mode=RNG_MODES,
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_flow_rows_equal_scalar_flow(self, backend, sizes, batch_size, epochs, mode, seed):
        rng = np.random.default_rng(seed)
        shards = [random_shard(rng, f"d{row}", size) for row, size in enumerate(sizes)]
        global_weights = rng.normal(scale=0.1, size=DIM)
        flow = standard_fl_flow(epochs=epochs, learning_rate=0.05, batch_size=batch_size)
        rngs, row_rngs = block_rngs(mode, seed, len(sizes))
        outputs = flow.execute_block(
            BlockOperatorContext(
                device_ids=[shard.device_id for shard in shards], grade="High", datasets=shards,
                feature_dim=DIM, backend=backend, global_weights=global_weights, global_bias=0.05, rngs=rngs,
            )
        ).outputs
        for row, shard in enumerate(shards):
            context = ml_reference.OperatorContext(
                device_id=shard.device_id, grade="High", dataset=shard, feature_dim=DIM, backend=backend,
                global_weights=global_weights, global_bias=0.05, rng=row_rngs[row],
            )
            expected = ml_reference.execute(flow, context).outputs
            assert bits(expected["update"].weights) == bits(outputs["update_weights"][row])
            assert bits(expected["update"].bias) == bits(outputs["update_biases"][row])
            assert expected["local_metrics"] == outputs["local_metrics"][row]

    def test_zero_record_shard_trains_to_its_start_and_fails_eval(self):
        rng = np.random.default_rng(3)
        shards = [random_shard(rng, "a", 5), random_shard(rng, "empty", 0), random_shard(rng, "b", 40)]
        weights = rng.normal(size=(3, DIM))
        trained, biases = SGD(learning_rate=0.1, batch_size=8).run_epochs_block(
            weights, np.full(3, 0.25), RaggedShards.of(shards), 2, None, SERVER_BACKEND
        )
        assert bits(trained[1]) == bits(weights[1]) and biases[1] == 0.25
        assert not np.array_equal(trained[0], weights[0]) and not np.array_equal(trained[2], weights[2])
        block = BlockOperatorContext(
            device_ids=["a", "empty", "b"], grade="High", datasets=shards, feature_dim=DIM,
            global_weights=np.zeros(DIM),
        )
        with pytest.raises(ValueError, match="empty batches"):
            standard_fl_flow(epochs=1).execute_block(block)

    def test_block_of_no_devices_trains_to_nothing(self):
        # Fig. 6's all-logical mix hands the device tier an empty block.
        weights, biases = SGD(learning_rate=0.1).run_epochs_block(
            np.zeros((0, DIM)), np.zeros(0), RaggedShards.of([]), 2, [], DEVICE_BACKEND
        )
        assert weights.shape == (0, DIM) and biases.shape == (0,)


class TestSegmentSums:
    def test_equals_row_sum_and_mean_bitwise(self):
        rng = np.random.default_rng(0)
        lengths = np.concatenate([np.arange(1, 130), rng.integers(1, 1201, size=60), [1200]])
        # Magnitudes over many decades, so summation order shows in the low bits.
        values = rng.normal(size=lengths.sum()) * 10.0 ** rng.integers(-6, 7, size=lengths.sum())
        sums = segment_sums(values, lengths)
        for segment, total, length in zip(np.split(values, np.cumsum(lengths)[:-1]), sums, lengths):
            assert bits(segment.sum()) == bits(total)
            assert bits(segment.mean()) == bits(total / length)

    def test_plain_reduceat_is_not_row_sum(self):
        # Without the zero head, reduceat computes first + pairwise(rest),
        # which rounds differently from np.add.reduce's pairwise sum.
        rng = np.random.default_rng(1)
        lengths = np.full(200, 40)
        values = rng.normal(size=lengths.sum()) * 10.0 ** rng.integers(-6, 7, size=lengths.sum())
        starts = np.cumsum(lengths) - lengths
        plain = np.add.reduceat(values, starts)
        row_sums = np.array([segment.sum() for segment in np.split(values, starts[1:])])
        assert np.any(plain != row_sums)
        assert bits(segment_sums(values, lengths)) == bits(row_sums)

    def test_float32_stays_float32(self):
        values = np.random.default_rng(2).normal(size=50).astype(np.float32)
        sums = segment_sums(values, np.array([20, 30]))
        assert sums.dtype == np.float32
        assert sums[1] == values[20:].sum()


class TestRaggedMetrics:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=7),
        levels=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_auc_equals_reference(self, sizes, levels, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=sum(sizes)).astype(np.int8)
        labels[: sizes[0]] = rng.integers(0, 2)  # a single-class segment: AUC 0.5
        probabilities = rng.integers(0, levels, size=sum(sizes)) / (levels - 1)
        aucs = roc_auc_block(labels, probabilities, sizes)
        rows = block_metrics(labels, probabilities, sizes)
        assert aucs[0] == 0.5
        bounds = np.cumsum(sizes)[:-1]
        for row, (row_labels, row_probs) in enumerate(zip(np.split(labels, bounds), np.split(probabilities, bounds))):
            assert aucs[row] == ml_reference.roc_auc(row_labels, row_probs)
            assert rows[row] == {
                "accuracy": ml_reference.accuracy(row_labels, row_probs),
                "log_loss": ml_reference.log_loss(row_labels, row_probs),
                "auc": ml_reference.roc_auc(row_labels, row_probs),
            }

    def test_misaligned_segments_rejected(self):
        with pytest.raises(ValueError):
            block_metrics(np.array([1, 0, 1]), np.array([0.2, 0.4, 0.9]), [1, 1])


class TestOnePassPerStep:
    def test_block_of_many_shard_sizes_calls_sigmoid_once_per_step(self, monkeypatch):
        # The tripwire for the per-shard-size grouping: a 48-device block
        # with >= 10 distinct shard sizes costs one forward pass per SGD
        # step, plus one for evaluation.
        rng = np.random.default_rng(7)
        sizes = [2 + (row % 16) for row in range(48)]
        assert len(set(sizes)) >= 10
        shards = [random_shard(rng, f"d{row}", size) for row, size in enumerate(sizes)]
        calls = []
        sigmoid = NumericBackend.sigmoid

        def counting_sigmoid(self, z):
            calls.append(len(z))
            return sigmoid(self, z)

        monkeypatch.setattr(NumericBackend, "sigmoid", counting_sigmoid)
        epochs, batch_size = 3, 4
        standard_fl_flow(epochs=epochs, learning_rate=0.05, batch_size=batch_size).execute_block(
            BlockOperatorContext(
                device_ids=[shard.device_id for shard in shards], grade="High", datasets=shards,
                feature_dim=DIM, global_weights=np.zeros(DIM),
                rngs=[np.random.default_rng(row) for row in range(48)],
            )
        )
        assert len(calls) == epochs * math.ceil(max(sizes) / batch_size) + 1
        assert calls[-1] == sum(sizes)
