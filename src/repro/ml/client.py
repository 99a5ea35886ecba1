"""Federated-learning clients: local training on device shards.

:class:`BlockTrainer` runs the paper's local loop for a whole block of
devices (one logical-tier wave, one phone plan, a figure's population)
as one ragged stack of rows; one client is a one-segment layout.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.checks import check_count
from repro.ml.backends import NumericBackend
from repro.ml.optimizer import SGD
from repro.ml.ragged import RaggedShards


class BlockTrainer:
    """The paper's local-training loop over a block of devices.

    The block's shards train together as one ragged stack
    (:meth:`~repro.ml.optimizer.SGD.run_epochs_block`), whatever mix of
    shard sizes it holds.  A device's result depends on its own shard,
    starting parameters and generator only — never on what it is stacked
    with — so a tier may group devices into waves, and a figure into
    whole populations, without perturbing seeded experiments
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
        Local-SGD recipe (paper defaults: 10 epochs, lr 1e-3); integer
        counts >= 1 and a finite positive rate.
    """

    def __init__(
        self,
        feature_dim: int,
        backend: NumericBackend,
        epochs: int,
        learning_rate: float,
        batch_size: int = 32,
    ) -> None:
        self.feature_dim = check_count("feature_dim", feature_dim)
        self.backend = backend
        self.epochs = check_count("epochs", epochs)
        self.optimizer = SGD(learning_rate=learning_rate, batch_size=batch_size)

    def train(
        self,
        weights: np.ndarray,
        biases: np.ndarray,
        shards: RaggedShards,
        rngs: Sequence[np.random.Generator | None] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Refine each device's parameters on its local shard.

        ``weights`` is ``(n_devices, feature_dim)`` and ``biases``
        ``(n_devices,)`` — usually the broadcast global model — one row per
        segment of ``shards`` (``RaggedShards.of(datasets)``), and ``rngs``
        the per-device shuffling sources (seeded generators; ``None``, for
        the block or for a device, trains in shard order).  Returns the
        updated ``(weights, biases)`` pair in the same device order.
        """
        return self.optimizer.run_epochs_block(weights, biases, shards, self.epochs, rngs, self.backend)
