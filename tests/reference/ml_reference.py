"""Per-device reference implementation of the numeric kernel.

The scalar ML path as it stood before ``repro.ml`` kept only the stacked
block kernel: one device's scores, one device's mini-batch SGD, the
Python tie loop of ``roc_auc``, ``FLClient`` and the four operators'
per-device ``apply`` bodies.  They define what one row of
``NumericBackend.gather_scores`` / ``SGD.run_epochs_block`` /
``block_metrics`` / ``BlockTrainer.train`` / ``Operator.apply_block`` must
reproduce bit for bit on each device's segment of a ragged block.  Do not optimise it.

Methods that lived on ``NumericBackend`` / ``SGD`` / ``Operator`` /
``OperatorFlow`` are module functions taking that object first; the
bodies are unchanged.  Shared with ``src/``: ``NumericBackend.cast`` /
``sigmoid``, the ``SGD`` hyper-parameters, ``ModelUpdate`` and ``fedavg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.avazu import DeviceDataset
from repro.ml.backends import SERVER_BACKEND, NumericBackend
from repro.ml.fedavg import ModelUpdate
from repro.ml.operators import DownloadModelOp, EvalOp, OperatorFlow, TrainOp, UploadUpdateOp
from repro.ml.optimizer import SGD


# ----------------------------------------------------------------------
# backends.py
# ----------------------------------------------------------------------
def gather_scores(
    backend: NumericBackend, weights: np.ndarray, bias: float, features: np.ndarray
) -> np.ndarray:
    """Compute per-record logits ``sum_f w[features[:, f]] + bias``.

    ``features`` is an ``(n, n_fields)`` int array of hash indices.
    The reduction runs field-by-field in this backend's precision and
    order so rounding behaviour is faithful to the implementation.
    """
    working = backend.cast(weights)
    gathered = working[features]  # (n, n_fields)
    if backend.reverse_reduction:
        gathered = gathered[:, ::-1]
    scores = np.zeros(len(features), dtype=backend.dtype)
    for column in range(gathered.shape[1]):
        scores = (scores + gathered[:, column]).astype(backend.dtype)
    return (scores + backend.dtype.type(bias)).astype(backend.dtype)


# ----------------------------------------------------------------------
# optimizer.py
# ----------------------------------------------------------------------
def run_epoch(
    optimizer: SGD,
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator | None = None,
    backend: NumericBackend = SERVER_BACKEND,
) -> tuple[np.ndarray, float]:
    """One pass over the data; returns updated ``(weights, bias)``.

    The forward pass (scores, sigmoid) runs in the backend's precision
    so that server/device implementations diverge realistically, while
    the parameter update accumulates in float64 master weights — the
    standard mixed-precision training recipe.
    """
    if len(features) != len(labels):
        raise ValueError("features and labels must align")
    n_records = len(labels)
    weights = np.array(weights, dtype=np.float64, copy=True)
    bias = float(bias)
    order = np.arange(n_records) if rng is None else rng.permutation(n_records)
    for start in range(0, n_records, optimizer.batch_size):
        batch = order[start : start + optimizer.batch_size]
        batch_features = features[batch]
        batch_labels = labels[batch].astype(np.float64)
        scores = gather_scores(backend, weights, bias, batch_features)
        probabilities = backend.sigmoid(scores).astype(np.float64)
        errors = probabilities - batch_labels  # dL/dscore
        # Scatter-add gradients to the touched hash buckets.
        gradient = np.zeros_like(weights)
        np.add.at(gradient, batch_features.ravel(), np.repeat(errors, batch_features.shape[1]))
        gradient /= len(batch)
        weights -= optimizer.learning_rate * gradient
        bias -= optimizer.learning_rate * float(errors.mean())
    return weights, bias


def run_epochs(
    optimizer: SGD,
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    rng: np.random.Generator | None = None,
    backend: NumericBackend = SERVER_BACKEND,
) -> tuple[np.ndarray, float]:
    """Run ``epochs`` sequential epochs (the paper's local loop of 10)."""
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    for _ in range(epochs):
        weights, bias = run_epoch(optimizer, weights, bias, features, labels, rng=rng, backend=backend)
    return weights, bias


# ----------------------------------------------------------------------
# metrics.py
# ----------------------------------------------------------------------
def accuracy(labels: np.ndarray, probabilities: np.ndarray, threshold: float = 0.5) -> float:
    """Fraction of records whose thresholded probability matches the label."""
    labels = np.asarray(labels)
    probabilities = np.asarray(probabilities)
    if labels.shape != probabilities.shape:
        raise ValueError("labels and probabilities must have the same shape")
    if len(labels) == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    predictions = (probabilities >= threshold).astype(labels.dtype)
    return float((predictions == labels).mean())


def log_loss(labels: np.ndarray, probabilities: np.ndarray, eps: float = 1e-12) -> float:
    """Mean binary cross-entropy with probability clipping."""
    labels = np.asarray(labels, dtype=np.float64)
    probs = np.clip(np.asarray(probabilities, dtype=np.float64), eps, 1.0 - eps)
    if labels.shape != probs.shape:
        raise ValueError("labels and probabilities must have the same shape")
    if len(labels) == 0:
        raise ValueError("cannot compute log loss of an empty batch")
    losses = -(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs))
    return float(losses.mean())


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum (Mann-Whitney) identity.

    Ties receive average ranks.  Returns 0.5 when one class is absent,
    which keeps round-by-round evaluation robust on tiny shards.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same shape")
    n_positive = int((labels == 1).sum())
    n_negative = int((labels == 0).sum())
    if n_positive == 0 or n_negative == 0:
        return 0.5
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    # Average ranks over tied score groups.
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    positive_rank_sum = ranks[labels == 1].sum()
    u_statistic = positive_rank_sum - n_positive * (n_positive + 1) / 2.0
    return float(u_statistic / (n_positive * n_negative))


# ----------------------------------------------------------------------
# model.py
# ----------------------------------------------------------------------
class ScalarLogisticRegressionModel:
    """The per-device half of ``LogisticRegressionModel``: one device's
    forward pass, evaluation and in-place local training."""

    def __init__(self, feature_dim: int, backend: NumericBackend = SERVER_BACKEND) -> None:
        self.feature_dim = int(feature_dim)
        self.backend = backend
        self.weights = np.zeros(self.feature_dim, dtype=np.float64)
        self.bias = 0.0

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        """Raw logits for an ``(n, n_fields)`` index batch."""
        return gather_scores(self.backend, self.weights, self.bias, features)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Click probabilities in ``[0, 1]``."""
        return self.backend.sigmoid(self.decision_scores(features)).astype(np.float64)

    def evaluate(self, features: np.ndarray, labels: np.ndarray) -> dict[str, float]:
        """Accuracy, log-loss and AUC on a labelled batch."""
        probabilities = self.predict_proba(features)
        return {
            "accuracy": accuracy(labels, probabilities),
            "log_loss": log_loss(labels, probabilities),
            "auc": roc_auc(labels, probabilities),
        }

    def fit_local(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 10,
        learning_rate: float = 1e-3,
        batch_size: int = 32,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Train in place with the paper's local-SGD recipe."""
        optimizer = SGD(learning_rate=learning_rate, batch_size=batch_size)
        self.weights, self.bias = run_epochs(
            optimizer, self.weights, self.bias, features, labels, epochs, rng=rng, backend=self.backend
        )

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


# ----------------------------------------------------------------------
# client.py
# ----------------------------------------------------------------------
class FLClient:
    """Runs the paper's local-training loop for one device."""

    def __init__(
        self,
        dataset: DeviceDataset,
        feature_dim: int,
        backend: NumericBackend = SERVER_BACKEND,
        epochs: int = 10,
        learning_rate: float = 1e-3,
        batch_size: int = 32,
        rng: np.random.Generator | None = None,
    ) -> None:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.dataset = dataset
        self.feature_dim = int(feature_dim)
        self.backend = backend
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.rng = rng

    @property
    def device_id(self) -> str:
        """Identifier of the device this client runs on."""
        return self.dataset.device_id

    @property
    def n_samples(self) -> int:
        """Local dataset size (the FedAvg weight)."""
        return self.dataset.n_samples

    def local_train(
        self, global_weights: np.ndarray, global_bias: float, round_index: int
    ) -> ModelUpdate:
        """Refine the global model on local data; return the update."""
        model = ScalarLogisticRegressionModel(self.feature_dim, self.backend)
        model.set_params(global_weights, global_bias)
        model.fit_local(
            self.dataset.features,
            self.dataset.labels,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            rng=self.rng,
        )
        weights, bias = model.get_params()
        return ModelUpdate(
            device_id=self.device_id,
            round_index=round_index,
            weights=weights,
            bias=bias,
            n_samples=self.n_samples,
            metadata={"backend": self.backend.name},
        )


# ----------------------------------------------------------------------
# operators.py
# ----------------------------------------------------------------------
@dataclass
class OperatorContext:
    """Mutable state threaded through one device's flow execution."""

    device_id: str
    grade: str
    dataset: DeviceDataset
    feature_dim: int
    backend: NumericBackend = SERVER_BACKEND
    global_weights: np.ndarray | None = None
    global_bias: float = 0.0
    round_index: int = 1
    rng: np.random.Generator | None = None
    outputs: dict[str, Any] = field(default_factory=dict)


def _apply_download(op: DownloadModelOp, context: OperatorContext) -> None:
    if context.global_weights is None:
        raise RuntimeError(
            f"device {context.device_id}: global model was not staged before the flow ran"
        )
    context.outputs["model"] = ScalarLogisticRegressionModel(context.feature_dim, context.backend)
    context.outputs["model"].set_params(context.global_weights, context.global_bias)


def _apply_train(op: TrainOp, context: OperatorContext) -> None:
    model = context.outputs.get("model")
    if model is None:
        raise RuntimeError("TrainOp requires DownloadModelOp earlier in the flow")
    model.fit_local(
        context.dataset.features,
        context.dataset.labels,
        epochs=op.epochs,
        learning_rate=op.optimizer.learning_rate,
        batch_size=op.optimizer.batch_size,
        rng=context.rng,
    )


def _apply_eval(op: EvalOp, context: OperatorContext) -> None:
    model = context.outputs.get("model")
    if model is None:
        raise RuntimeError("EvalOp requires DownloadModelOp earlier in the flow")
    context.outputs["local_metrics"] = model.evaluate(
        context.dataset.features, context.dataset.labels
    )


def _apply_upload(op: UploadUpdateOp, context: OperatorContext) -> None:
    model = context.outputs.get("model")
    if model is None:
        raise RuntimeError("UploadUpdateOp requires a trained model in the flow")
    weights, bias = model.get_params()
    context.outputs["update"] = ModelUpdate(
        device_id=context.device_id,
        round_index=context.round_index,
        weights=weights,
        bias=bias,
        n_samples=context.dataset.n_samples,
        metadata={"grade": context.grade, "backend": context.backend.name},
    )


#: The per-device ``apply`` body each built-in operator used to carry.
_APPLY = {
    DownloadModelOp: _apply_download,
    TrainOp: _apply_train,
    EvalOp: _apply_eval,
    UploadUpdateOp: _apply_upload,
}


def execute(flow: OperatorFlow, context: OperatorContext) -> OperatorContext:
    """Run every operator in order against ``context``."""
    for op in flow.operators:
        _APPLY[type(op)](op, context)
    return context
