"""Logistic-regression CTR model over hashed categorical features."""

from __future__ import annotations

import numpy as np

from repro.checks import check_count
from repro.ml.backends import NumericBackend
from repro.ml.metrics import block_metrics

#: Wire header in front of the float64 weights and bias: 4-byte magic, uint32 version, uint32 feature dim.
_HEADER_BYTES = 12


class LogisticRegressionModel:
    """The paper's benchmark CTR model.

    Parameters are kept as float64 master copies; the forward pass runs in
    the configured :class:`~repro.ml.backends.NumericBackend`, which is how
    the "same operator, different implementation" effect of §VI-B2 enters.
    This is the global model the cloud folds into and evaluates; devices
    train stacked copies of it (:class:`~repro.ml.client.BlockTrainer`).

    Parameters
    ----------
    feature_dim:
        Hash-bucket count; must match the dataset encoder.
    backend:
        Numeric backend used for forward passes and training.
    """

    def __init__(self, feature_dim: int, backend: NumericBackend) -> None:
        self.feature_dim = check_count("feature_dim", feature_dim)
        self.backend = backend
        self.weights = np.zeros(self.feature_dim, dtype=np.float64)
        self.bias = 0.0

    # ------------------------------------------------------------------
    # inference (one model scores a one-segment layout of the ragged kernels)
    # ------------------------------------------------------------------
    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        """Raw logits for an ``(n, n_fields)`` index batch."""
        return self.backend.gather_scores(
            self.weights[None], np.array([self.bias]), features, np.zeros(len(features), dtype=np.intp)
        )

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Click probabilities in ``[0, 1]``."""
        return self.backend.sigmoid(self.decision_scores(features)).astype(np.float64)

    def evaluate(self, features: np.ndarray, labels: np.ndarray) -> dict[str, float]:
        """Accuracy, log-loss and AUC on a labelled batch."""
        labels = np.asarray(labels)
        return block_metrics(labels, self.predict_proba(features), [len(labels)])[0]

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def get_params(self) -> tuple[np.ndarray, float]:
        """Copy of ``(weights, bias)``."""
        return self.weights.copy(), self.bias

    def set_params(self, weights: np.ndarray, bias: float) -> None:
        """Install new parameters (validating dimensionality)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.feature_dim,):
            raise ValueError(
                f"weights shape {weights.shape} != ({self.feature_dim},)"
            )
        self.weights = weights.copy()
        self.bias = float(bias)

    def payload_size(self) -> int:
        """Size in bytes of the model on the wire.

        A 4096-dim float64 model is 32 788 bytes — together with the
        message envelope this lands on the ~33 KB per-round communication
        volume Table I reports.
        """
        return _HEADER_BYTES + self.feature_dim * 8 + 8
