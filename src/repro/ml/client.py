"""Federated-learning clients: local training on device shards.

:class:`BlockTrainer` runs the paper's local loop for a whole block of
devices (one logical-tier wave, one phone plan, a figure's population)
as stacked NumPy matrices; one client is a block of one row.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.avazu import DeviceDataset
from repro.ml.backends import NumericBackend
from repro.ml.optimizer import SGD


class BlockTrainer:
    """The paper's local-training loop over a block of devices.

    Devices are grouped by shard size so each group trains as one stacked
    ``(n_devices, dim)`` weight matrix through
    :meth:`~repro.ml.optimizer.SGD.run_epochs_block`; results land back in
    block order.  A device's result depends on its own shard, starting
    parameters and generator only — never on what it is stacked with —
    so a tier may group devices into waves, and a figure into whole
    populations, without perturbing seeded experiments
    (``tests/reference/ml_reference.py`` holds the per-device oracle).

    Parameters
    ----------
    feature_dim:
        Model dimensionality, must match the shards' encoder.
    backend:
        Numeric backend — ``SERVER_BACKEND`` when the clients are emulated
        by the logical simulation, ``DEVICE_BACKEND`` when they represent
        physical phones.
    epochs / learning_rate / batch_size:
        Local-SGD recipe (paper defaults: 10 epochs, lr 1e-3).
    """

    def __init__(
        self,
        feature_dim: int,
        backend: NumericBackend,
        epochs: int,
        learning_rate: float,
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
        rngs: Sequence[np.random.Generator | None] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Refine each device's parameters on its local shard.

        ``weights`` is ``(n_devices, feature_dim)`` and ``biases``
        ``(n_devices,)`` — usually the broadcast global model — and
        ``rngs`` the per-device shuffling sources (seeded generators;
        ``None``, for the block or for a device, trains in shard order).  Returns the updated ``(weights, biases)``
        pair in the same device order.
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
