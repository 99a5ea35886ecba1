"""Per-device reference implementation of :class:`repro.data.SyntheticAvazu`.

This is the generator body as it stood before the columnar rewrite, kept
verbatim (but for building its own encoder): one Python iteration per
device, ten ``rng.choice(..., p=probs)`` calls per device, a fresh Zipf
table per call.  It defines the random-stream layout the columnar generator
must reproduce bit for bit, so the differential tests in
``tests/test_data.py`` compare against it.  Do not optimise it.
"""

from __future__ import annotations

import numpy as np

from repro.data.avazu import (
    _FIELD_CARDINALITIES,
    AVAZU_FIELDS,
    DeviceDataset,
    FederatedDataset,
    SyntheticAvazu,
)
from repro.data.features import HashingEncoder


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


class ReferenceSyntheticAvazu(SyntheticAvazu):
    """Same constructor and parameters; the pre-columnar ``generate``."""

    def generate(
        self,
        device_biases: np.ndarray | None = None,
        test_records: int = 2000,
    ) -> FederatedDataset:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xA7A2)))
        true_weights, _ = self._ground_truth(rng)
        encoder = HashingEncoder(self.feature_dim, AVAZU_FIELDS)
        vocab_for_calibration = {
            fld: encoder.vocabulary_indices(fld, _FIELD_CARDINALITIES[fld])
            for fld in AVAZU_FIELDS
        }
        global_bias = self._calibrate_intercept(rng, true_weights, vocab_for_calibration)
        if device_biases is None:
            device_biases = rng.normal(0.0, self.DEVICE_BIAS_STD, self.n_devices)
        elif len(device_biases) != self.n_devices:
            raise ValueError(
                f"device_biases must have length {self.n_devices}, got {len(device_biases)}"
            )

        vocab = vocab_for_calibration
        sizes = np.maximum(2, rng.poisson(self.records_per_device, self.n_devices))

        devices: dict[str, DeviceDataset] = {}
        bias_map: dict[str, float] = {}
        for i in range(self.n_devices):
            device_id = f"dev-{i:06d}"
            features = self._draw_features(rng, int(sizes[i]), vocab)
            labels = self._draw_labels(
                rng, features, true_weights, global_bias + float(device_biases[i])
            )
            devices[device_id] = DeviceDataset(device_id, features, labels)
            bias_map[device_id] = float(device_biases[i])

        test_features = self._draw_features(rng, test_records, vocab)
        test_labels = self._draw_labels(rng, test_features, true_weights, global_bias)
        test = DeviceDataset("test", test_features, test_labels)
        return FederatedDataset(
            devices=devices,
            test=test,
            feature_dim=self.feature_dim,
            device_biases=bias_map,
        )

    # ------------------------------------------------------------------
    def _ground_truth(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Sparse true weights plus the naive (uncalibrated) intercept."""
        weights = np.zeros(self.feature_dim)
        n_active = max(8, int(self.ACTIVE_FRACTION * self.feature_dim))
        active = rng.choice(self.feature_dim, size=n_active, replace=False)
        weights[active] = rng.normal(0.0, self.SIGNAL_SCALE, n_active)
        intercept = float(np.log(self.base_ctr / (1.0 - self.base_ctr)))
        return weights, intercept

    def _calibrate_intercept(
        self,
        rng: np.random.Generator,
        true_weights: np.ndarray,
        vocab: dict[str, np.ndarray],
    ) -> float:
        features = self._draw_features(rng, self.N_CALIBRATION, vocab)
        scores = true_weights[features].sum(axis=1)
        low, high = -15.0, 15.0
        for _ in range(60):
            mid = (low + high) / 2.0
            if float(_sigmoid(scores + mid).mean()) < self.base_ctr:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def _draw_features(
        self,
        rng: np.random.Generator,
        n_records: int,
        vocab: dict[str, np.ndarray],
    ) -> np.ndarray:
        """Sample hashed feature index rows, Zipf-skewed per field."""
        columns = []
        for fld in AVAZU_FIELDS:
            table = vocab[fld]
            cardinality = len(table)
            # Zipf-ish popularity: categorical fields in click logs are
            # heavily skewed toward a few frequent values.
            ranks = np.arange(1, cardinality + 1, dtype=float)
            probs = 1.0 / ranks
            probs /= probs.sum()
            ids = rng.choice(cardinality, size=n_records, p=probs)
            columns.append(table[ids])
        return np.stack(columns, axis=1).astype(np.int32)

    def _draw_labels(
        self,
        rng: np.random.Generator,
        features: np.ndarray,
        true_weights: np.ndarray,
        bias: float,
    ) -> np.ndarray:
        """Bernoulli labels from the planted logistic model."""
        logits = true_weights[features].sum(axis=1) + bias
        probs = _sigmoid(logits)
        return (rng.random(len(probs)) < probs).astype(np.int8)
