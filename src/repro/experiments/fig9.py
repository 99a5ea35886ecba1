"""Fig. 9: impact of device-behaviour traffic curves on aggregation.

The non-IID scenario: "clients with higher CTR transmit data faster to the
cloud, while those with lower CTR experience longer delays", with response
curves shaped as right-tailed normals N(0, sigma), sigma in {1, 2, 3}.

(a) Under *sample-threshold* aggregation, a smaller sigma concentrates
    arrivals early: the threshold is reached sooner and more often inside
    the fixed 20-minute window, so more aggregation rounds complete and
    the loss ends lower.  Larger sigmas leave part of the response tail
    outside the window entirely.
(b) Under *scheduled* aggregation, devices respond every round with a
    curve-shaped delay; only responses inside the period contribute.
    A smaller sigma aggregates more (and less CTR-biased) samples per
    round, yielding higher train accuracy — measured against the full
    training population, i.e. how representative the aggregate is of the
    true distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.aggregation import AggregationService, SampleThresholdTrigger
from repro.data import make_federated_ctr_data
from repro.data.partition import assign_delay_profiles
from repro.deviceflow import MessageBlock
from repro.experiments.render import format_table
from repro.ml import SERVER_BACKEND, BlockTrainer, FedAvgPartial, LogisticRegressionModel, RaggedShards
from repro.simkernel import Simulator

#: Local-training recipe strong enough for visible convergence dynamics on
#: the synthetic CTR data (the paper's absolute Avazu numbers differ; the
#: orderings are what reproduce).
_EPOCHS = 10
_LEARNING_RATE = 0.3


@dataclass
class TrafficImpactResult:
    """Per-sigma aggregation histories."""

    window_s: float
    threshold_loss: dict[float, list[tuple[float, float]]] = field(default_factory=dict)
    threshold_rounds: dict[float, int] = field(default_factory=dict)
    arrivals_in_window: dict[float, int] = field(default_factory=dict)
    scheduled_accuracy: dict[float, list[tuple[int, float]]] = field(default_factory=dict)
    participation: dict[float, list[int]] = field(default_factory=dict)

    def loss_at(self, sigma: float, minute: float) -> float:
        """Loss of the latest aggregation at/before ``minute``."""
        last = None
        for t, loss in self.threshold_loss[sigma]:
            if t <= minute:
                last = loss
        if last is None:
            raise ValueError(f"no aggregation before minute {minute} for sigma={sigma}")
        return last


def _client_rngs(dataset, seed: int) -> dict[str, np.random.Generator]:
    """Each client's shuffling stream, kept across the rounds it joins."""
    return {
        d: np.random.default_rng(np.random.SeedSequence((seed, i)))
        for i, d in enumerate(dataset.device_ids())
    }


def _run_threshold(
    sigma: float, n_devices: int, window_s: float, feature_dim: int, seed: int
):
    """Panel (a): one-shot arrivals, sample-threshold aggregation."""
    dataset = make_federated_ctr_data(
        n_devices=n_devices, records_per_device=40, feature_dim=feature_dim,
        seed=seed, skew={"positive_fraction": 0.5, "spread": 1.5},
        test_records=1500, base_ctr=0.5,
    )
    # sigma=1 fits inside the window (4 sigma = window); larger sigmas
    # push part of the response tail beyond it.
    sigma_seconds = sigma * window_s / 4.0
    delays = assign_delay_profiles(
        dataset.device_biases, sigma=sigma_seconds, max_delay=10.0 * window_s, seed=seed
    )
    sim = Simulator()
    service = AggregationService(
        sim,
        SampleThresholdTrigger(max(1, dataset.n_records // 8)),
        model=LogisticRegressionModel(feature_dim, SERVER_BACKEND),
        test_set=dataset.test,
    )
    service.start()
    trainer = BlockTrainer(feature_dim, SERVER_BACKEND, epochs=_EPOCHS, learning_rate=_LEARNING_RATE)
    rngs = _client_rngs(dataset, seed)
    arrivals = {"n": 0}

    def arrival(device_id: str) -> None:
        # Each arrival trains against the model of its own instant: a
        # block of one row.
        arrivals["n"] += 1
        weights, bias = service.model.get_params()
        shard = dataset.shard(device_id)
        trained_weights, trained_biases = trainer.train(
            weights[None], [bias], RaggedShards.of([shard]), [rngs[device_id]]
        )
        service.receive_block(
            MessageBlock(
                task_id="fig9a",
                round_index=service.rounds_completed + 1,
                device_ids=[device_id],
                n_samples=[shard.n_samples],
                update_weights=trained_weights,
                update_biases=trained_biases,
            )
        )

    for device_id, delay in delays.items():
        if delay <= window_s:
            sim.schedule(delay, arrival, device_id)
    sim.run(until=window_s)
    service.stop()
    return service, arrivals["n"]


def _run_scheduled(
    sigma: float, n_devices: int, window_s: float, rounds: int, feature_dim: int, seed: int
):
    """Panel (b): per-round responses; in-period responders aggregate."""
    dataset = make_federated_ctr_data(
        n_devices=n_devices, records_per_device=40, feature_dim=feature_dim,
        seed=seed, skew={"positive_fraction": 0.5, "spread": 1.5},
        test_records=1500, base_ctr=0.5,
    )
    period = window_s / rounds
    sigma_seconds = sigma * period  # sigma=1: most responses fit one period
    delays = assign_delay_profiles(
        dataset.device_biases, sigma=sigma_seconds, max_delay=10.0 * period, seed=seed
    )
    trainer = BlockTrainer(feature_dim, SERVER_BACKEND, epochs=_EPOCHS, learning_rate=_LEARNING_RATE)
    rngs = _client_rngs(dataset, seed)
    model = LogisticRegressionModel(feature_dim, SERVER_BACKEND)
    shards = {d: dataset.shard(d) for d in dataset.device_ids()}
    all_features = np.concatenate([s.features for s in shards.values()])
    all_labels = np.concatenate([s.labels for s in shards.values()])
    jitter_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x919)))

    accuracy_by_round: list[tuple[int, float]] = []
    participation: list[int] = []
    for round_index in range(1, rounds + 1):
        weights, bias = model.get_params()
        responders = [
            device_id
            for device_id, delay in delays.items()
            if delay * jitter_rng.lognormal(0.0, 0.15) <= period
        ]
        participation.append(len(responders))
        if responders:
            # The round's responders share the global model: one block.
            trained_weights, trained_biases = trainer.train(
                np.tile(weights, (len(responders), 1)),
                np.full(len(responders), bias),
                RaggedShards.of([shards[d] for d in responders]),
                [rngs[d] for d in responders],
            )
            model.set_params(
                *FedAvgPartial.from_arrays(
                    trained_weights, trained_biases, [shards[d].n_samples for d in responders]
                ).finalize()
            )
        train_accuracy = model.evaluate(all_features, all_labels)["accuracy"]
        accuracy_by_round.append((round_index, train_accuracy))
    return accuracy_by_round, participation


def run_fig9_traffic_impact(
    sigmas: tuple[float, ...] = (1.0, 2.0, 3.0),
    n_devices: int = 120,
    window_s: float = 1200.0,
    rounds: int = 10,
    feature_dim: int = 512,
    seed: int = 0,
) -> TrafficImpactResult:
    """Both panels of Fig. 9 across the sigma family."""
    result = TrafficImpactResult(window_s=window_s)
    for sigma in sigmas:
        service, arrived = _run_threshold(sigma, n_devices, window_s, feature_dim, seed)
        result.threshold_loss[sigma] = [
            (record.time / 60.0, record.test_loss) for record in service.history
        ]
        result.threshold_rounds[sigma] = service.rounds_completed
        result.arrivals_in_window[sigma] = arrived
        accuracy, participation = _run_scheduled(
            sigma, n_devices, window_s, rounds, feature_dim, seed
        )
        result.scheduled_accuracy[sigma] = accuracy
        result.participation[sigma] = participation
    return result


def format_fig9(result: TrafficImpactResult) -> str:
    """Render both panels as tables."""
    sigmas = sorted(result.threshold_loss)
    window_min = result.window_s / 60.0
    checkpoints = [window_min * f for f in (0.25, 0.5, 1.0)]

    def loss_or_dash(sigma: float, minute: float):
        try:
            return round(result.loss_at(sigma, minute), 4)
        except ValueError:
            return None

    rows_a = [
        [
            f"sigma={sigma:g}",
            result.arrivals_in_window[sigma],
            result.threshold_rounds[sigma],
        ]
        + [loss_or_dash(sigma, m) for m in checkpoints]
        for sigma in sigmas
    ]
    part_a = format_table(
        f"Fig. 9(a): sample-threshold aggregation in a {window_min:.0f}-minute window",
        ["curve", "arrivals in window", "aggregations"]
        + [f"loss@{m:.0f}min" for m in checkpoints],
        rows_a,
    )
    rows_b = []
    max_round = max(
        (r for sigma in sigmas for r, _ in result.scheduled_accuracy[sigma]), default=0
    )
    for sigma in sigmas:
        series = dict(result.scheduled_accuracy[sigma])
        rows_b.append(
            [f"sigma={sigma:g}"]
            + [round(series.get(r, float("nan")), 4) for r in range(1, max_round + 1)]
            + [round(float(np.mean(result.participation[sigma])), 1)]
        )
    part_b = format_table(
        "Fig. 9(b): scheduled aggregation, train accuracy per round (full population)",
        ["curve"] + [f"r{r}" for r in range(1, max_round + 1)] + ["avg participants"],
        rows_b,
    )
    return part_a + "\n\n" + part_b
