"""Unit tests for the LR model, backends, optimizer and metrics.

``repro.ml`` has one numeric kernel, the ragged block kernel; these
tests drive it the way a single device does, as a one-segment layout.
``TestKernelEqualsReference`` holds it, row by row, to the per-device
oracle in ``reference.ml_reference``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import avazu_reference, ml_reference

from repro.data import SyntheticAvazu
from repro.data.avazu import DeviceDataset
from repro.ml import (
    DEVICE_BACKEND,
    SERVER_BACKEND,
    BlockOperatorContext,
    BlockTrainer,
    LogisticRegressionModel,
    RaggedShards,
    SGD,
    block_metrics,
    standard_fl_flow,
)
from repro.ml.metrics import roc_auc_block

BACKENDS = st.sampled_from([SERVER_BACKEND, DEVICE_BACKEND])


def one_row_metrics(labels, probabilities):
    return block_metrics(labels, probabilities, [len(labels)])[0]


def one_row_auc(labels, scores):
    return roc_auc_block(labels, scores, [len(labels)])[0]


def one_row_scores(backend, weights, bias, features):
    return backend.gather_scores(weights[None], np.array([bias]), features, np.zeros(len(features), dtype=np.intp))


def one_row_epochs(optimizer, weights, bias, features, labels, epochs, rng=None, backend=SERVER_BACKEND):
    weights, biases = optimizer.run_epochs_block(
        weights[None],
        np.array([bias]),
        RaggedShards.from_segments(features, labels, [len(labels)]),
        epochs,
        rngs=[rng],
        backend=backend,
    )
    return weights[0], biases[0]


def fit(model, features, labels, epochs, learning_rate, batch_size):
    optimizer = SGD(learning_rate=learning_rate, batch_size=batch_size)
    model.set_params(
        *one_row_epochs(optimizer, model.weights, model.bias, features, labels, epochs, backend=model.backend)
    )


def small_dataset(seed=0, n_devices=30, records=40, dim=256):
    data = SyntheticAvazu(
        n_devices=n_devices, records_per_device=records, feature_dim=dim, seed=seed
    ).generate(test_records=500)
    features = np.concatenate([data.shard(d).features for d in data.device_ids()])
    labels = np.concatenate([data.shard(d).labels for d in data.device_ids()])
    return features, labels, data.test, dim


class TestMetrics:
    def test_accuracy_basic(self):
        labels = np.array([1, 0, 1, 0])
        probs = np.array([0.9, 0.1, 0.4, 0.6])
        assert one_row_metrics(labels, probs)["accuracy"] == pytest.approx(0.5)

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            one_row_metrics(np.array([]), np.array([]))

    def test_log_loss_perfect_prediction_near_zero(self):
        labels = np.array([1, 0])
        probs = np.array([1.0, 0.0])
        assert one_row_metrics(labels, probs)["log_loss"] < 1e-10

    def test_log_loss_uniform_is_ln2(self):
        labels = np.array([1, 0, 1, 0])
        probs = np.full(4, 0.5)
        assert one_row_metrics(labels, probs)["log_loss"] == pytest.approx(np.log(2))

    def test_roc_auc_perfect(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert one_row_auc(labels, scores) == pytest.approx(1.0)

    def test_roc_auc_inverted(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert one_row_auc(labels, scores) == pytest.approx(0.0)

    def test_roc_auc_ties_averaged(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert one_row_auc(labels, scores) == pytest.approx(0.5)

    def test_roc_auc_single_class(self):
        assert one_row_auc(np.array([1, 1]), np.array([0.1, 0.9])) == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            roc_auc_block(np.array([1, 0]), np.array([0.5]), [2])


class TestBackends:
    def test_gather_scores_matches_naive(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=64)
        features = rng.integers(0, 64, size=(10, 4))
        scores = one_row_scores(SERVER_BACKEND, weights, 0.5, features)
        naive = weights[features].sum(axis=1) + 0.5
        assert np.allclose(scores, naive)

    def test_device_backend_is_float32(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=64)
        features = rng.integers(0, 64, size=(10, 4))
        scores = one_row_scores(DEVICE_BACKEND, weights, 0.0, features)
        assert scores.dtype == np.float32

    def test_backends_agree_approximately_not_exactly(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=512)
        features = rng.integers(0, 512, size=(200, 10))
        server = one_row_scores(SERVER_BACKEND, weights, 0.1, features)
        device = one_row_scores(DEVICE_BACKEND, weights, 0.1, features)
        assert np.allclose(server, device, atol=1e-4)
        assert not np.array_equal(server.astype(np.float64), device.astype(np.float64))

    def test_sigmoid_extremes_stable(self):
        probs = SERVER_BACKEND.sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert probs[0] == pytest.approx(0.0)
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        backend=BACKENDS,
        z=st.lists(st.floats(allow_nan=False, width=32) | st.sampled_from([0.0, -0.0, 88.7, -103.9]), max_size=64),
    )
    def test_branch_free_sigmoid_equals_the_masked_kernel(self, backend, z):
        z = backend.cast(np.array(z, dtype=np.float64))
        assert backend.sigmoid(z).tobytes() == avazu_reference._sigmoid(z).astype(backend.dtype).tobytes()


class TestSGD:
    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0)
        with pytest.raises(ValueError):
            SGD(learning_rate=0.05, batch_size=0)

    def test_epoch_reduces_loss(self):
        features, labels, _, dim = small_dataset()
        model = LogisticRegressionModel(dim, SERVER_BACKEND)
        before = model.evaluate(features, labels)["log_loss"]
        optimizer = SGD(learning_rate=0.05, batch_size=32)
        model.set_params(*one_row_epochs(optimizer, model.weights, model.bias, features, labels, epochs=5))
        after = model.evaluate(features, labels)["log_loss"]
        assert after < before

    def test_deterministic_without_rng(self):
        features, labels, _, dim = small_dataset()
        optimizer = SGD(learning_rate=0.01)
        run_a = one_row_epochs(optimizer, np.zeros(dim), 0.0, features, labels, 1)
        run_b = one_row_epochs(optimizer, np.zeros(dim), 0.0, features, labels, 1)
        assert np.array_equal(run_a[0], run_b[0])
        assert run_a[1] == run_b[1]

    def test_misaligned_rejected(self):
        optimizer = SGD(learning_rate=1e-3)
        with pytest.raises(ValueError):
            one_row_epochs(optimizer, np.zeros(8), 0.0, np.zeros((3, 2), dtype=int), np.zeros(4), 1)


class TestLogisticRegressionModel:
    def test_learns_synthetic_signal(self):
        features, labels, test, dim = small_dataset(records=60)
        model = LogisticRegressionModel(dim, SERVER_BACKEND)
        baseline = model.evaluate(test.features, test.labels)
        fit(model, features, labels, epochs=30, learning_rate=0.1, batch_size=64)
        trained = model.evaluate(test.features, test.labels)
        assert trained["log_loss"] < baseline["log_loss"]
        assert trained["auc"] > 0.6

    def test_payload_size_matches_serialization(self):
        model = LogisticRegressionModel(4096, SERVER_BACKEND)
        # 12-byte header, 4096 float64 weights, one float64 bias.
        assert model.payload_size() == 12 + 4096 * 8 + 8
        # The paper's ~33 KB uplink: 4096 float64 weights + envelope.
        assert 32_000 < model.payload_size() < 34_000

    def test_set_params_validates_shape(self):
        model = LogisticRegressionModel(16, SERVER_BACKEND)
        with pytest.raises(ValueError):
            model.set_params(np.zeros(8), 0.0)

    def test_backend_divergence_is_small(self):
        """Fig. 6 premise: backends cause tiny but nonzero divergence."""
        features, labels, test, dim = small_dataset(records=50)
        server_model = LogisticRegressionModel(dim, SERVER_BACKEND)
        device_model = LogisticRegressionModel(dim, DEVICE_BACKEND)
        for model in (server_model, device_model):
            fit(model, features, labels, epochs=5, learning_rate=0.05, batch_size=64)
        server_acc = server_model.evaluate(test.features, test.labels)["accuracy"]
        device_acc = device_model.evaluate(test.features, test.labels)["accuracy"]
        assert abs(server_acc - device_acc) < 0.01
        assert not np.array_equal(server_model.weights, device_model.weights)


def random_shard(rng, device_id, n_records, dim, n_fields=4):
    features = rng.integers(0, dim, size=(n_records, n_fields)).astype(np.int32)
    labels = rng.integers(0, 2, size=n_records).astype(np.int8)
    return DeviceDataset(device_id, features, labels)


def shuffle_rngs(seed, n_rows, seeded):
    """Two identical lists of per-row generators (``None`` where unseeded)."""
    return [
        [np.random.default_rng((seed, row)) if seeded[row % len(seeded)] else None for row in range(n_rows)]
        for _ in range(2)
    ]


def assert_bits_equal(reference, candidate):
    assert np.asarray(reference, dtype=np.float64).tobytes() == np.asarray(candidate, dtype=np.float64).tobytes()


class TestKernelEqualsReference:
    """Row ``d`` of every block kernel == the per-device oracle on device ``d``, bit for bit."""

    DIM = 24

    @given(
        backend=BACKENDS,
        n_rows=st.sampled_from([1, 2, 7]),
        n_records=st.integers(min_value=1, max_value=40),
        batch_size=st.integers(min_value=1, max_value=17),  # most draws leave a remainder batch
        epochs=st.integers(min_value=1, max_value=3),
        seeded=st.sampled_from([(True,), (False,), (True, False)]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_training_rows_equal_scalar_sgd(self, backend, n_rows, n_records, batch_size, epochs, seeded, seed):
        rng = np.random.default_rng(seed)
        shards = [random_shard(rng, f"d{row}", n_records, self.DIM) for row in range(n_rows)]
        weights = rng.normal(scale=0.1, size=(n_rows, self.DIM))
        biases = rng.normal(scale=0.1, size=n_rows)
        optimizer = SGD(learning_rate=0.05, batch_size=batch_size)
        block_rngs, row_rngs = shuffle_rngs(seed, n_rows, seeded)
        trained_weights, trained_biases = optimizer.run_epochs_block(
            weights,
            biases,
            RaggedShards.of(shards),
            epochs,
            rngs=None if seeded == (False,) else block_rngs,
            backend=backend,
        )
        for row, shard in enumerate(shards):
            expected_weights, expected_bias = ml_reference.run_epochs(
                optimizer, weights[row], biases[row], shard.features, shard.labels, epochs,
                rng=row_rngs[row], backend=backend,
            )
            assert_bits_equal(expected_weights, trained_weights[row])
            assert_bits_equal(expected_bias, trained_biases[row])

    @given(
        backend=BACKENDS,
        sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),  # mixed shard sizes
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_flow_rows_equal_scalar_flow(self, backend, sizes, seed):
        # The whole standard flow: the ragged training pass, EvalOp's
        # local metrics and the packaged upload, against FLClient and the
        # four scalar operator bodies.
        rng = np.random.default_rng(seed)
        shards = [random_shard(rng, f"d{row}", size, self.DIM) for row, size in enumerate(sizes)]
        global_weights, global_bias = rng.normal(scale=0.1, size=self.DIM), 0.05
        flow = standard_fl_flow(epochs=2, learning_rate=0.05, batch_size=8)
        block_rngs, row_rngs = shuffle_rngs(seed, len(shards), (True,))
        outputs = flow.execute_block(
            BlockOperatorContext(
                device_ids=[shard.device_id for shard in shards],
                grade="High",
                datasets=shards,
                feature_dim=self.DIM,
                backend=backend,
                global_weights=global_weights,
                global_bias=global_bias,
                round_index=3,
                rngs=block_rngs,
            )
        ).outputs
        client_rngs = shuffle_rngs(seed, len(shards), (True,))[0]
        trainer = BlockTrainer(self.DIM, backend, epochs=2, learning_rate=0.05, batch_size=8)
        client_weights, client_biases = trainer.train(
            np.tile(global_weights, (len(shards), 1)),
            np.full(len(shards), global_bias),
            RaggedShards.of(shards),
            client_rngs,
        )
        for row, shard in enumerate(shards):
            context = ml_reference.OperatorContext(
                device_id=shard.device_id, grade="High", dataset=shard, feature_dim=self.DIM, backend=backend,
                global_weights=global_weights, global_bias=global_bias, round_index=3, rng=row_rngs[row],
            )
            update = ml_reference.execute(flow, context).outputs["update"]
            assert_bits_equal(update.weights, outputs["update_weights"][row])
            assert_bits_equal(update.bias, outputs["update_biases"][row])
            assert context.outputs["local_metrics"] == outputs["local_metrics"][row]
            assert_bits_equal(update.weights, client_weights[row])
            assert_bits_equal(update.bias, client_biases[row])

    @given(
        n_rows=st.sampled_from([1, 2, 6]),
        n_records=st.integers(min_value=1, max_value=60),  # includes one-record rows
        levels=st.sampled_from([2, 5, 1000]),  # few levels = heavy score ties
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_metric_rows_equal_scalar_metrics(self, n_rows, n_records, levels, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=(n_rows, n_records)).astype(np.int8)
        labels[0] = rng.integers(0, 2)  # a single-class row: AUC 0.5
        probabilities = rng.integers(0, levels, size=(n_rows, n_records)) / (levels - 1)
        rows = block_metrics(labels.ravel(), probabilities.ravel(), [n_records] * n_rows)
        assert rows[0]["auc"] == 0.5
        for row in range(n_rows):
            assert rows[row] == {
                "accuracy": ml_reference.accuracy(labels[row], probabilities[row]),
                "log_loss": ml_reference.log_loss(labels[row], probabilities[row]),
                "auc": ml_reference.roc_auc(labels[row], probabilities[row]),
            }

    @given(backend=BACKENDS, n_records=st.integers(min_value=1, max_value=200), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_model_equals_scalar_model(self, backend, n_records, seed):
        # LogisticRegressionModel's forward pass and evaluation are one-row
        # calls into the block kernels (what the cloud's fold-time
        # evaluation runs).
        rng = np.random.default_rng(seed)
        shard = random_shard(rng, "test", n_records, self.DIM)
        model = LogisticRegressionModel(self.DIM, backend)
        scalar = ml_reference.ScalarLogisticRegressionModel(self.DIM, backend)
        weights = rng.normal(size=self.DIM).round(1)  # rounded weights: tied scores
        for each in (model, scalar):
            each.set_params(weights, 0.1)
        reference_scores = scalar.decision_scores(shard.features)
        scores = model.decision_scores(shard.features)
        assert scores.dtype == reference_scores.dtype == backend.dtype
        assert_bits_equal(reference_scores, scores)
        assert model.evaluate(shard.features, shard.labels) == scalar.evaluate(shard.features, shard.labels)
