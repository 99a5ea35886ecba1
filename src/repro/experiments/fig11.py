"""Fig. 11: device dropout vs data distribution.

"In the real-time dispatching scenario, we simulated 1,000 devices with
varying dropout probabilities (0.3, 0.7, 0.9) and recorded the aggregation
results using a timed aggregation strategy."  With identically distributed
device data, dropout barely moves test accuracy; with differentially
distributed data (70% of devices positive-heavy, 30% negative-heavy),
convergence destabilises and accuracy degrades as dropout grows.

Messages travel through a live DeviceFlow with the real-time accumulated
strategy's per-message failure probability — the platform's dropout
mechanism, not an ad-hoc coin flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.aggregation import AggregationService, ScheduledTrigger
from repro.data import make_federated_ctr_data
from repro.deviceflow import DeviceFlow, MessageBlock, RealTimeAccumulatedStrategy
from repro.experiments.render import format_table
from repro.ml import SERVER_BACKEND, BlockTrainer, LogisticRegressionModel, ModelUpdate, RaggedShards
from repro.simkernel import RandomStreams, Simulator, Timeout


@dataclass
class DropoutImpactResult:
    """Test accuracy per round for each (distribution, dropout) setting."""

    rounds: int
    accuracy: dict[tuple[str, float], list[float]] = field(default_factory=dict)

    def final_accuracy(self, distribution: str, dropout: float) -> float:
        """Accuracy after the last round of one setting."""
        return self.accuracy[(distribution, dropout)][-1]

    def volatility(self, distribution: str, dropout: float) -> float:
        """Std-dev of the round-to-round accuracy changes (instability)."""
        series = np.array(self.accuracy[(distribution, dropout)])
        if len(series) < 2:
            return 0.0
        return float(np.std(np.diff(series)))


def _run_setting(
    dropout: float,
    skew: dict | None,
    n_devices: int,
    rounds: int,
    feature_dim: int,
    seed: int,
) -> list[float]:
    """One multi-round FL run with DeviceFlow dropout; returns accuracies."""
    dataset = make_federated_ctr_data(
        n_devices=n_devices,
        records_per_device=40,
        feature_dim=feature_dim,
        seed=seed,
        skew=skew,
        test_records=1500,
        base_ctr=0.5,  # balanced labels keep accuracy an informative metric
    )
    sim = Simulator()
    streams = RandomStreams(seed)
    period = 60.0
    service = AggregationService(
        sim,
        ScheduledTrigger(period, max_rounds=rounds),
        model=LogisticRegressionModel(feature_dim, SERVER_BACKEND),
        test_set=dataset.test,
    )
    service.start()
    flow = DeviceFlow(sim, streams=streams, capacity_per_second=5000.0)
    flow.register_task(
        "fig11",
        RealTimeAccumulatedStrategy([1], failure_prob=dropout),
        service.receive_block,
    )
    ids = dataset.device_ids()
    shards = [dataset.shard(d) for d in ids]
    stacked = RaggedShards.of(shards)
    rngs = [streams.get(f"client.{d}") for d in ids]
    n_samples = [shard.n_samples for shard in shards]
    payload_bytes = ModelUpdate.wire_size(feature_dim)
    trainer = BlockTrainer(feature_dim, SERVER_BACKEND, epochs=10, learning_rate=0.3)

    def round_loop():
        for round_index in range(1, rounds + 1):
            flow.round_started("fig11", round_index)
            weights, bias = service.model.get_params()
            # Every device trains on the round's global model: one block.
            trained_weights, trained_biases = trainer.train(
                np.tile(weights, (len(ids), 1)), np.full(len(ids), bias), stacked, rngs
            )
            # ...submitted as one block; the unit threshold dispatches (and
            # draws dropout for) each row on its own.
            flow.submit_block(
                MessageBlock(
                    task_id="fig11", round_index=round_index, device_ids=ids,
                    size_bytes=payload_bytes, n_samples=n_samples,
                    update_weights=trained_weights, update_biases=trained_biases,
                )
            )
            flow.round_completed("fig11", round_index)
            yield Timeout(period)

    sim.process(round_loop())
    sim.run(until=rounds * period + 1.0)
    service.stop()
    accuracies = [record.test_accuracy for record in service.history]
    # Rounds where every message dropped produce no aggregation; carry the
    # previous accuracy forward so series align across settings.
    while len(accuracies) < rounds:
        accuracies.append(accuracies[-1] if accuracies else 0.5)
    return accuracies[:rounds]


def run_fig11_dropout_impact(
    dropouts: tuple[float, ...] = (0.0, 0.3, 0.7, 0.9),
    n_devices: int = 200,
    rounds: int = 10,
    feature_dim: int = 512,
    seed: int = 0,
) -> DropoutImpactResult:
    """Both panels: identically and differentially distributed data."""
    result = DropoutImpactResult(rounds=rounds)
    for dropout in dropouts:
        result.accuracy[("iid", dropout)] = _run_setting(
            dropout, None, n_devices, rounds, feature_dim, seed
        )
        result.accuracy[("skewed", dropout)] = _run_setting(
            dropout,
            {"positive_fraction": 0.7, "spread": 2.5},
            n_devices,
            rounds,
            feature_dim,
            seed,
        )
    return result


def format_fig11(result: DropoutImpactResult) -> str:
    """Render per-round accuracy for both distributions."""
    parts = []
    for distribution, title in (
        ("iid", "Fig. 11(a): identically distributed"),
        ("skewed", "Fig. 11(b): differentially distributed (70/30)"),
    ):
        dropouts = sorted(p for d, p in result.accuracy if d == distribution)
        rows = []
        for p in dropouts:
            series = result.accuracy[(distribution, p)]
            rows.append(
                [f"dropout={p:g}"]
                + [round(a, 4) for a in series]
                + [round(result.volatility(distribution, p), 4)]
            )
        headers = ["setting"] + [f"r{r}" for r in range(1, result.rounds + 1)] + ["volatility"]
        parts.append(format_table(title + " — test accuracy per round", headers, rows))
    return "\n\n".join(parts)
