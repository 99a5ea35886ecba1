"""Unit tests for the LR model, backends, optimizer and metrics."""

import numpy as np
import pytest

from repro.data import SyntheticAvazu
from repro.ml import (
    DEVICE_BACKEND,
    SERVER_BACKEND,
    LogisticRegressionModel,
    SGD,
    accuracy,
    log_loss,
    roc_auc,
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
        assert accuracy(labels, probs) == pytest.approx(0.5)

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_log_loss_perfect_prediction_near_zero(self):
        labels = np.array([1, 0])
        probs = np.array([1.0, 0.0])
        assert log_loss(labels, probs) < 1e-10

    def test_log_loss_uniform_is_ln2(self):
        labels = np.array([1, 0, 1, 0])
        probs = np.full(4, 0.5)
        assert log_loss(labels, probs) == pytest.approx(np.log(2))

    def test_roc_auc_perfect(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(labels, scores) == pytest.approx(1.0)

    def test_roc_auc_inverted(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc(labels, scores) == pytest.approx(0.0)

    def test_roc_auc_ties_averaged(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert roc_auc(labels, scores) == pytest.approx(0.5)

    def test_roc_auc_single_class(self):
        assert roc_auc(np.array([1, 1]), np.array([0.1, 0.9])) == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([1, 0]), np.array([0.5]))


class TestBackends:
    def test_gather_scores_matches_naive(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=64)
        features = rng.integers(0, 64, size=(10, 4))
        scores = SERVER_BACKEND.gather_scores(weights, 0.5, features)
        naive = weights[features].sum(axis=1) + 0.5
        assert np.allclose(scores, naive)

    def test_device_backend_is_float32(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=64)
        features = rng.integers(0, 64, size=(10, 4))
        scores = DEVICE_BACKEND.gather_scores(weights, 0.0, features)
        assert scores.dtype == np.float32

    def test_backends_agree_approximately_not_exactly(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=512)
        features = rng.integers(0, 512, size=(200, 10))
        server = SERVER_BACKEND.gather_scores(weights, 0.1, features)
        device = DEVICE_BACKEND.gather_scores(weights, 0.1, features)
        assert np.allclose(server, device, atol=1e-4)
        assert not np.array_equal(server.astype(np.float64), device.astype(np.float64))

    def test_sigmoid_extremes_stable(self):
        probs = SERVER_BACKEND.sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert probs[0] == pytest.approx(0.0)
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(1.0)


class TestSGD:
    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0)
        with pytest.raises(ValueError):
            SGD(l2=-1)
        with pytest.raises(ValueError):
            SGD(batch_size=0)

    def test_epoch_reduces_loss(self):
        features, labels, _, dim = small_dataset()
        model = LogisticRegressionModel(dim)
        before = log_loss(labels, model.predict_proba(features))
        optimizer = SGD(learning_rate=0.05, batch_size=32)
        weights, bias = optimizer.run_epochs(
            model.weights, model.bias, features, labels, epochs=5
        )
        model.set_params(weights, bias)
        after = log_loss(labels, model.predict_proba(features))
        assert after < before

    def test_deterministic_without_rng(self):
        features, labels, _, dim = small_dataset()
        optimizer = SGD(learning_rate=0.01)
        run_a = optimizer.run_epoch(np.zeros(dim), 0.0, features, labels)
        run_b = optimizer.run_epoch(np.zeros(dim), 0.0, features, labels)
        assert np.array_equal(run_a[0], run_b[0])
        assert run_a[1] == run_b[1]

    def test_l2_shrinks_weights(self):
        features, labels, _, dim = small_dataset()
        plain = SGD(learning_rate=0.05).run_epochs(np.zeros(dim), 0.0, features, labels, 3)
        decayed = SGD(learning_rate=0.05, l2=1.0).run_epochs(
            np.zeros(dim), 0.0, features, labels, 3
        )
        assert np.linalg.norm(decayed[0]) < np.linalg.norm(plain[0])

    def test_misaligned_rejected(self):
        optimizer = SGD()
        with pytest.raises(ValueError):
            optimizer.run_epoch(np.zeros(8), 0.0, np.zeros((3, 2), dtype=int), np.zeros(4))


class TestLogisticRegressionModel:
    def test_learns_synthetic_signal(self):
        features, labels, test, dim = small_dataset(records=60)
        model = LogisticRegressionModel(dim)
        baseline = model.evaluate(test.features, test.labels)
        model.fit_local(features, labels, epochs=30, learning_rate=0.1, batch_size=64)
        trained = model.evaluate(test.features, test.labels)
        assert trained["log_loss"] < baseline["log_loss"]
        assert trained["auc"] > 0.6

    def test_payload_size_matches_serialization(self):
        model = LogisticRegressionModel(4096)
        # 12-byte header, 4096 float64 weights, one float64 bias.
        assert model.payload_size() == 12 + 4096 * 8 + 8
        # The paper's ~33 KB uplink: 4096 float64 weights + envelope.
        assert 32_000 < model.payload_size() < 34_000

    def test_set_params_validates_shape(self):
        model = LogisticRegressionModel(16)
        with pytest.raises(ValueError):
            model.set_params(np.zeros(8), 0.0)

    def test_backend_divergence_is_small(self):
        """Fig. 6 premise: backends cause tiny but nonzero divergence."""
        features, labels, test, dim = small_dataset(records=50)
        server_model = LogisticRegressionModel(dim, SERVER_BACKEND)
        device_model = LogisticRegressionModel(dim, DEVICE_BACKEND)
        for model in (server_model, device_model):
            model.fit_local(features, labels, epochs=5, learning_rate=0.05, batch_size=64)
        server_acc = server_model.evaluate(test.features, test.labels)["accuracy"]
        device_acc = device_model.evaluate(test.features, test.labels)["accuracy"]
        assert abs(server_acc - device_acc) < 0.01
        assert not np.array_equal(server_model.weights, device_model.weights)
