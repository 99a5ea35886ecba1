"""Ablation: numeric-backend divergence vs model dimensionality.

The PyMNN-vs-MNN stand-ins (float64 natural order vs float32 reversed
reduction) should produce parameter divergence that grows with model size
yet never moves accuracy materially — quantifying the slack behind the
Fig. 6 claim.
"""

import numpy as np

from conftest import full_scale

from repro.data import SyntheticAvazu
from repro.experiments.render import format_table
from repro.ml import DEVICE_BACKEND, SERVER_BACKEND, BlockTrainer, LogisticRegressionModel, RaggedShards


def backend_divergence(dims=(128, 512, 2048), seed=0):
    rows = []
    for dim in dims:
        data = SyntheticAvazu(
            n_devices=40, records_per_device=30, feature_dim=dim, base_ctr=0.5, seed=seed
        ).generate(test_records=1500)
        # The pooled training set as one client: a one-segment layout.
        pooled = RaggedShards.from_segments(
            np.concatenate([data.shard(d).features for d in data.device_ids()]),
            np.concatenate([data.shard(d).labels for d in data.device_ids()]),
            [data.n_records],
        )
        metrics = {}
        params = {}
        for backend in (SERVER_BACKEND, DEVICE_BACKEND):
            trainer = BlockTrainer(dim, backend, epochs=5, learning_rate=0.05, batch_size=64)
            weights, biases = trainer.train(np.zeros((1, dim)), np.zeros(1), pooled, None)
            model = LogisticRegressionModel(dim, backend)
            model.set_params(weights[0], biases[0])
            metrics[backend.name] = model.evaluate(data.test.features, data.test.labels)
            params[backend.name] = model.weights
        weight_gap = float(
            np.max(np.abs(params["pymnn-server"] - params["mnn-device"]))
        )
        accuracy_gap = 100.0 * abs(
            metrics["pymnn-server"]["accuracy"] - metrics["mnn-device"]["accuracy"]
        )
        rows.append((dim, f"{weight_gap:.2e}", round(accuracy_gap, 4)))
    return rows


def test_backend_divergence(benchmark, persist_result):
    dims = (128, 512, 2048, 4096) if full_scale() else (128, 512, 2048)
    rows = benchmark.pedantic(backend_divergence, kwargs={"dims": dims}, rounds=1, iterations=1)
    for _, weight_gap, accuracy_gap in rows:
        assert float(weight_gap) > 0.0  # backends genuinely diverge...
        assert accuracy_gap < 0.5  # ...but never by a material accuracy amount
    persist_result(
        "ablation_backend_divergence",
        format_table(
            "Ablation: server/device backend divergence vs model dimension",
            ["feature dim", "max |w_server - w_device|", "|ACC gap| pct pts"],
            rows,
        ),
    )
