"""Federated-learning clients: local training on device shards.

:class:`FLClient` runs one device's local loop; :class:`BlockTrainer`
runs a whole block of devices (one logical-tier wave) through the same
loop as stacked NumPy matrices, bit-identical per device.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.avazu import DeviceDataset
from repro.ml.backends import SERVER_BACKEND, NumericBackend
from repro.ml.fedavg import ModelUpdate
from repro.ml.model import LogisticRegressionModel
from repro.ml.optimizer import SGD


class FLClient:
    """Runs the paper's local-training loop for one device.

    Parameters
    ----------
    dataset:
        The device's local shard (never leaves the client, per FL).
    feature_dim:
        Model dimensionality, must match the shard's encoder.
    backend:
        Numeric backend — ``SERVER_BACKEND`` when this client is emulated
        by the logical simulation, ``DEVICE_BACKEND`` when it represents a
        physical phone.
    epochs / learning_rate / batch_size:
        Local-SGD recipe (paper defaults: 10 epochs, lr 1e-3).
    rng:
        Shuffling source; pass a seeded generator for reproducibility.
    """

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
        model = LogisticRegressionModel(self.feature_dim, self.backend)
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


class BlockTrainer:
    """Vectorized local-SGD over a block of devices (one wave of actors).

    Devices are grouped by shard size so each group trains as one stacked
    ``(n_devices, dim)`` weight matrix through
    :meth:`~repro.ml.optimizer.SGD.run_epochs_block`; results land back in
    block order.  Per device the math is bit-identical to
    :meth:`FLClient.local_train` with the same generator — the vectorized
    path is a pure execution-strategy change, which is what lets the
    logical tier swap it in under the batched kernel without perturbing
    seeded experiments.
    """

    def __init__(
        self,
        feature_dim: int,
        backend: NumericBackend = SERVER_BACKEND,
        epochs: int = 10,
        learning_rate: float = 1e-3,
        batch_size: int = 32,
    ) -> None:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.feature_dim = int(feature_dim)
        self.backend = backend
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)

    def train(
        self,
        weights: np.ndarray,
        biases: np.ndarray,
        datasets: Sequence[DeviceDataset],
        rngs: Sequence[np.random.Generator | None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Refine per-device parameters in place of the per-device loop.

        ``weights`` is ``(n_devices, feature_dim)`` and ``biases``
        ``(n_devices,)`` — usually the broadcast global model.  Returns the
        updated ``(weights, biases)`` pair in the same device order.
        """
        weights = np.array(weights, dtype=np.float64, copy=True)
        biases = np.array(biases, dtype=np.float64, copy=True)
        if len(datasets) != len(weights):
            raise ValueError("datasets and weights must align")
        optimizer = SGD(learning_rate=self.learning_rate, batch_size=self.batch_size)
        groups: dict[int, list[int]] = {}
        for position, dataset in enumerate(datasets):
            groups.setdefault(dataset.n_samples, []).append(position)
        for positions in groups.values():
            stacked_features = np.stack([datasets[i].features for i in positions])
            stacked_labels = np.stack([datasets[i].labels for i in positions])
            group_rngs = None if rngs is None else [rngs[i] for i in positions]
            trained_weights, trained_biases = optimizer.run_epochs_block(
                weights[positions],
                biases[positions],
                stacked_features,
                stacked_labels,
                self.epochs,
                rngs=group_rngs,
                backend=self.backend,
            )
            weights[positions] = trained_weights
            biases[positions] = trained_biases
        return weights, biases
