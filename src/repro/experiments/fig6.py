"""Fig. 6: hybrid heterogeneous computing does not hurt accuracy.

The paper trains with PyMNN operators in logical simulation and C++ MNN
operators on phones, splits each grade's devices across tiers at five
ratios (Type 1 = 100% logical ... Type 5 = 100% physical), and shows the
final accuracy stays within +/-0.5% of the benchmark "local distributed
computing" run at every scale from (4,4) to (500,500) devices per grade.

Accuracy differences are a pure function of *which backend trains which
client* — the timing layers cannot change the aggregated mathematics of a
synchronous round — so this experiment runs at the client level with the
two numeric backends, keeping the full (500,500) sweep tractable.  Each
tier's clients train as one stacked block through the
:class:`~repro.ml.BlockTrainer` the execution tiers run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import make_federated_ctr_data
from repro.experiments.render import format_table
from repro.ml import (
    DEVICE_BACKEND,
    SERVER_BACKEND,
    BlockTrainer,
    FedAvgPartial,
    LogisticRegressionModel,
    RaggedShards,
)

#: The paper's five allocation ratios (logical-tier fraction).
TYPE_RATIOS: tuple[tuple[str, float], ...] = (
    ("Type 1", 1.00),
    ("Type 2", 0.75),
    ("Type 3", 0.50),
    ("Type 4", 0.25),
    ("Type 5", 0.00),
)


@dataclass
class HybridAccuracyResult:
    """ACC difference (percentage points) per scale and allocation type."""

    scales: list[tuple[int, int]] = field(default_factory=list)
    diffs: dict[tuple[str, tuple[int, int]], float] = field(default_factory=dict)
    benchmark_accuracy: dict[tuple[int, int], float] = field(default_factory=dict)

    def max_abs_diff(self) -> float:
        """Worst-case deviation across all cells (the <0.5% claim)."""
        return max(abs(v) for v in self.diffs.values())


def _train_hybrid(
    dataset, feature_dim: int, logical_fraction: float, rounds: int, seed: int
) -> float:
    """Synchronous FedAvg with a backend split; returns test accuracy.

    Clients on the physical tier run the device backend, whose operator
    implementation differs from the server's in two realistic ways:
    float32 arithmetic with a different reduction order, and the SDK's own
    mini-batch shuffling stream (the shuffle seed is salted with the
    backend name).  Both are implementation details of "operators with
    identical functionalities but differing underlying implementations"
    (§VI-B2) — the sources of the sub-0.5% accuracy deviations.
    """
    ids = dataset.device_ids()
    n_logical = int(round(logical_fraction * len(ids)))
    shards = [dataset.shard(device_id) for device_id in ids]
    n_samples = [shard.n_samples for shard in shards]
    tiers = [(SERVER_BACKEND, slice(0, n_logical)), (DEVICE_BACKEND, slice(n_logical, len(ids)))]
    rngs = [
        np.random.default_rng(np.random.SeedSequence((seed, index, sum(backend.name.encode()))))
        for backend, tier in tiers
        for index in range(len(ids))[tier]
    ]
    model = LogisticRegressionModel(feature_dim, SERVER_BACKEND)
    for _ in range(rounds):
        global_weights, global_bias = model.get_params()
        weights = np.tile(global_weights, (len(ids), 1))
        biases = np.full(len(ids), global_bias)
        for backend, tier in tiers:
            trainer = BlockTrainer(feature_dim, backend, epochs=10, learning_rate=0.05)
            weights[tier], biases[tier] = trainer.train(
                weights[tier], biases[tier], RaggedShards.of(shards[tier]), rngs[tier]
            )
        model.set_params(*FedAvgPartial.from_arrays(weights, biases, n_samples).finalize())
    return model.evaluate(dataset.test.features, dataset.test.labels)["accuracy"]


def run_fig6_hybrid_accuracy(
    scales: tuple[tuple[int, int], ...] = ((4, 4), (20, 20), (100, 100), (500, 500)),
    rounds: int = 10,
    feature_dim: int = 512,
    seed: int = 0,
) -> HybridAccuracyResult:
    """ACC difference of every Type vs the all-server benchmark run.

    The benchmark "local distributed computing environment" trains every
    client with the server backend (Type 1 and the benchmark differ only
    in execution placement, which is why their difference is ~0).
    """
    result = HybridAccuracyResult(scales=list(scales))
    for scale in scales:
        n_high, n_low = scale
        dataset = make_federated_ctr_data(
            n_devices=n_high + n_low,
            records_per_device=20,
            feature_dim=feature_dim,
            seed=seed,
            test_records=2000,
            base_ctr=0.5,  # balanced labels keep accuracy sensitive
        )
        benchmark = _train_hybrid(dataset, feature_dim, 1.0, rounds, seed)
        result.benchmark_accuracy[scale] = benchmark
        for type_name, fraction in TYPE_RATIOS:
            accuracy = _train_hybrid(dataset, feature_dim, fraction, rounds, seed)
            result.diffs[(type_name, scale)] = 100.0 * (accuracy - benchmark)
    return result


def format_fig6(result: HybridAccuracyResult) -> str:
    """Render ACC differences (percentage points) by scale and type."""
    rows = []
    for type_name, _ in TYPE_RATIOS:
        row = [type_name]
        for scale in result.scales:
            row.append(round(result.diffs[(type_name, scale)], 4))
        rows.append(row)
    headers = ["Allocation"] + [f"({h},{l})" for h, l in result.scales]
    table = format_table(
        "Fig. 6: ACC difference (pct pts) vs local distributed benchmark "
        "(paper: all within +/-0.5%)",
        headers,
        rows,
    )
    return table + f"\nmax |ACC diff| = {result.max_abs_diff():.4f} pct pts"
