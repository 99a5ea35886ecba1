"""The aggregation service and its triggers.

§VI-C1: "In real federated learning scenarios, the cloud usually does not
know the exact number of participating devices or samples per training
round in advance.  Therefore, conditions must be set to trigger
aggregation.  Common triggers include reaching a threshold of total edge
training samples or reaching scheduled times."  Both trigger types are
implemented here and drive Figs. 9 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import check_count, check_positive
from repro.data.avazu import DeviceDataset
from repro.deviceflow.messages import MessageBlock
from repro.ml.fedavg import FedAvgPartial
from repro.ml.model import LogisticRegressionModel
from repro.simkernel import Simulator


@dataclass
class AggregationRecord:
    """One completed aggregation round on the cloud side."""

    round_index: int
    time: float
    n_updates: int
    n_samples: int
    test_loss: float | None = None
    test_accuracy: float | None = None
    test_auc: float | None = None


class AggregationTrigger:
    """Base trigger; subclasses decide *when* the buffer folds."""

    def start(self, service: AggregationService) -> None:
        """Called once when the service starts (schedule timers here)."""

    def on_update(self, service: AggregationService) -> None:
        """Called after every buffered update."""

    def stop(self, service: AggregationService) -> None:
        """Called when the service shuts down."""


class SampleThresholdTrigger(AggregationTrigger):
    """Aggregate as soon as buffered training samples reach a threshold."""

    def __init__(self, threshold_samples: int) -> None:
        self.threshold_samples = check_count("threshold_samples", threshold_samples)

    def on_update(self, service: AggregationService) -> None:
        while service.pending_samples >= self.threshold_samples:
            service.aggregate_now()


class ScheduledTrigger(AggregationTrigger):
    """Aggregate at a fixed period (the paper's "scheduled aggregation").

    The timer fires ``max_rounds`` times.  Rounds with an empty buffer are
    skipped (nothing to fold), matching timed-aggregation deployments that
    no-op on idle periods.
    """

    def __init__(self, period_s: float, max_rounds: int) -> None:
        self.period_s = check_positive("period_s", period_s)
        self.max_rounds = check_count("max_rounds", max_rounds)
        self._fired = 0
        self._stopped = False

    def start(self, service: AggregationService) -> None:
        self._schedule_next(service)

    def stop(self, service: AggregationService) -> None:
        self._stopped = True

    def _schedule_next(self, service: AggregationService) -> None:
        if self._stopped or self._fired >= self.max_rounds:
            return
        service.sim.schedule(self.period_s, self._fire, service)

    def _fire(self, service: AggregationService) -> None:
        if self._stopped:
            return
        self._fired += 1
        if service.pending_updates > 0:
            service.aggregate_now()
        self._schedule_next(service)


class AggregationService:
    """Receives update messages, folds them with FedAvg, tracks metrics.

    Ingestion surface
    -----------------
    One entry point buffers work, and everything else (the triggers,
    :meth:`aggregate_now`, the counters) is downstream of it:
    :meth:`receive_block` takes one
    :class:`~repro.deviceflow.messages.MessageBlock` — a whole round from
    a direct task, one delivered DeviceFlow chunk, or a single upload as
    a block of one row — and buffers its stacked update rows, which fold
    via the exact :class:`~repro.ml.fedavg.FedAvgPartial` primitive
    (bit-identical however the rows were cut into blocks, by FedAvg
    partition invariance).

    Triggers observe the buffer only through ``pending_updates`` /
    ``pending_samples`` and fold it only through :meth:`aggregate_now`;
    note a block is buffered atomically, so a threshold trigger fires at
    block granularity: after the block (for DeviceFlow traffic, the
    delivered chunk) that crosses the threshold, with all of that
    block's rows in the fold.

    Parameters
    ----------
    sim:
        Shared simulator.
    trigger:
        Aggregation condition.
    model:
        The global model; ``None`` runs the service in counting mode
        (large-scale scalability sweeps with no numeric training).
    test_set:
        Optional held-out shard evaluated after every aggregation.
    """

    def __init__(
        self,
        sim: Simulator,
        trigger: AggregationTrigger,
        *,
        model: LogisticRegressionModel | None = None,
        test_set: DeviceDataset | None = None,
    ) -> None:
        self.sim = sim
        self.trigger = trigger
        self.model = model
        self.test_set = test_set
        self.history: list[AggregationRecord] = []
        self.messages_received = 0
        self.bytes_received = 0
        self.receive_log: list[tuple[float, int]] = []
        self._pending_sample_count = 0
        #: ``n_samples`` columns received since ``_pending_sample_count`` was last brought up to date.
        self._sample_columns: list[np.ndarray] = []
        self._pending_update_count = 0
        #: The stacked ``(weights, biases, n_samples)`` rows of every
        #: received block, folded in one exact pass at fold time.
        self._stacked: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._round = 0
        self._started = False

    # ------------------------------------------------------------------
    @property
    def pending_updates(self) -> int:
        """Updates buffered since the last aggregation."""
        return self._pending_update_count

    @property
    def pending_samples(self) -> int:
        """Training samples represented by the buffer (the columns received since the last read, summed once)."""
        columns = self._sample_columns
        if columns:
            self._pending_sample_count += int((columns[0] if len(columns) == 1 else np.concatenate(columns)).sum())
            columns.clear()
        return self._pending_sample_count

    @property
    def rounds_completed(self) -> int:
        """Aggregations performed so far."""
        return self._round

    def start(self) -> None:
        """Arm the trigger (idempotent)."""
        if not self._started:
            self._started = True
            self.trigger.start(self)

    def stop(self) -> None:
        """Disarm the trigger."""
        if self._started:
            self.trigger.stop(self)
            self._started = False

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def receive_block(self, block: MessageBlock) -> None:
        """Buffer a block of updates for the next fold.

        Counters advance in bulk (one ``receive_log`` entry of the
        block's size), and numeric payloads are kept as stacked rows
        that :meth:`aggregate_now` folds through
        :meth:`FedAvgPartial.from_arrays` — the exact primitive, so the
        global model is bit-identical however the rows were cut into
        blocks.  Empty blocks are ignored.
        """
        n = block.rows
        if n == 0:
            return
        self.messages_received += n
        self.bytes_received += block.total_bytes
        self.receive_log.append((self.sim.now, n))
        if self.model is not None:
            if block.update_weights is None or block.update_biases is None:
                raise TypeError(
                    f"block for task {block.task_id!r} carries no stacked update "
                    "arrays but the service aggregates a model"
                )
            self._stacked.append((block.update_weights, block.update_biases, block.n_samples))
        self._pending_update_count += n
        self._sample_columns.append(block.n_samples)
        self.trigger.on_update(self)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def aggregate_now(self) -> AggregationRecord:
        """Fold the buffer into the global model and record metrics."""
        if self.pending_updates == 0:
            raise RuntimeError("nothing buffered to aggregate")
        self._round += 1
        n_updates, self._pending_update_count = self._pending_update_count, 0
        n_samples, self._pending_sample_count = self.pending_samples, 0
        record = AggregationRecord(round_index=self._round, time=self.sim.now, n_updates=n_updates, n_samples=n_samples)
        if self.model is not None:
            stacked, self._stacked = self._stacked, []
            columns = stacked[0] if len(stacked) == 1 else map(np.concatenate, zip(*stacked))
            self.model.set_params(*FedAvgPartial.from_arrays(*columns).finalize())
            if self.test_set is not None:
                metrics = self.model.evaluate(self.test_set.features, self.test_set.labels)
                record.test_loss = metrics["log_loss"]
                record.test_accuracy = metrics["accuracy"]
                record.test_auc = metrics["auc"]
        self.history.append(record)
        return record
