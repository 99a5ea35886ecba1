"""Mini-batch SGD for hashed-feature logistic regression."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.checks import check_count, check_positive
from repro.ml.backends import NumericBackend
from repro.ml.ragged import RaggedShards, segment_sums


class SGD:
    """Stochastic gradient descent over multi-hot hashed features.

    Parameters
    ----------
    learning_rate:
        Step size (the paper uses 1e-3); finite and positive.
    batch_size:
        Mini-batch size, an integer >= 1; batches beyond the final full
        one keep the remainder (no records are dropped).
    """

    def __init__(self, learning_rate: float, batch_size: int = 32) -> None:
        self.learning_rate = check_positive("learning_rate", learning_rate)
        self.batch_size = check_count("batch_size", batch_size)

    def run_epochs_block(
        self,
        weights: np.ndarray,
        biases: np.ndarray,
        shards: RaggedShards,
        epochs: int,
        rngs: Sequence[np.random.Generator | None] | None,
        backend: NumericBackend,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Train a ragged block of devices in lock-step.

        ``weights`` is ``(n_devices, dim)`` and ``biases`` ``(n_devices,)``,
        one row per segment of ``shards``.  Each epoch every device takes
        its own permutation (:meth:`RaggedShards.shuffled`); step ``s``
        then trains on every row whose position in its device's order lies
        in ``[s * batch_size, (s + 1) * batch_size)`` — one step per epoch
        when no shard exceeds the batch size, whatever mix of shard sizes
        the block holds.  A device with no rows left at a step is not
        stepped.

        The forward pass (scores, sigmoid) runs in the backend's precision
        so that server/device implementations diverge realistically, while
        the parameter update accumulates in float64 master weights — the
        standard mixed-precision training recipe.

        Device ``d``'s result depends on its own segment and ``rngs[d]``
        only (``tests/reference/ml_reference.py`` is the per-device oracle
        it equals bit for bit): the forward pass reduces field-by-field
        per row, the gradient accumulates each device's contributions in
        record-then-field order (devices occupy disjoint slices of one
        flat buffer, filled by one ``bincount`` in row order), and the
        bias step's mean is a :func:`~repro.ml.ragged.segment_sums`.
        """
        n_devices = len(shards)
        if len(weights) != n_devices or len(biases) != n_devices:
            raise ValueError("weights, biases and shards must align")
        if rngs is not None and len(rngs) != n_devices:
            raise ValueError(f"rngs must hold one generator (or None) per device: {len(rngs)} != {n_devices}")
        weights = np.array(weights, dtype=np.float64, copy=True)
        biases = np.array(biases, dtype=np.float64, copy=True)
        batch_size = self.batch_size
        n_steps = -(-int(shards.lengths.max(initial=0)) // batch_size)
        if n_steps == 0:
            return weights, biases
        dim = weights.shape[1]
        n_fields = shards.features.shape[1]
        labels = shards.labels.astype(np.float64)
        positions = np.arange(len(labels)) - shards.starts[shards.owners]
        for _ in range(check_count("epochs", epochs)):
            order = shards.shuffled(rngs)
            for step in range(n_steps):
                low = step * batch_size
                if n_steps == 1:
                    rows, owners = order, shards.owners
                else:
                    selected = (positions >= low) & (positions < low + batch_size)
                    rows, owners = order[selected], shards.owners[selected]
                counts = np.clip(shards.lengths - low, 0, batch_size)
                batch_features = shards.features[rows]
                scores = backend.gather_scores(weights, biases, batch_features, owners)
                errors = backend.sigmoid(scores).astype(np.float64) - labels[rows]
                # Device d's contributions land in its own dim-sized slice,
                # in record-then-field order; an idle device's slice stays
                # zero, and w - lr * 0.0 == w, so only its divisor and bias
                # need guarding.
                gradient = np.bincount(
                    (batch_features + (owners * dim)[:, None]).ravel(),
                    weights=np.repeat(errors, n_fields),
                    minlength=n_devices * dim,
                ).reshape(n_devices, dim)
                gradient /= np.maximum(counts, 1)[:, None]
                weights -= self.learning_rate * gradient
                active = counts > 0
                biases[active] -= self.learning_rate * (segment_sums(errors, counts[active]) / counts[active])
        return weights, biases
