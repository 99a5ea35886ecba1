"""Operator flows — the unit of computation SimDC tasks execute.

§III-A: a task is "a singular operator flow, composed of multiple operators
in a predetermined sequence", executed repeatedly (once per collaboration
round) by every simulated device.  Operators carry a declared ``work``
measure so execution tiers (logical actors, virtual phones) can convert
flow execution into simulated time via their speed models, while the
numeric effect of the flow runs eagerly in wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from functools import cached_property
from typing import Any

import numpy as np

from repro.checks import check_count
from repro.data.avazu import DeviceDataset
from repro.ml.backends import SERVER_BACKEND, NumericBackend
from repro.ml.metrics import block_metrics
from repro.ml.optimizer import SGD
from repro.ml.ragged import RaggedShards


@dataclass
class BlockOperatorContext:
    """Mutable state threaded through one block's flow execution.

    A block is a run of devices that share the grade, backend, round and
    global model — a wave of logical actors, a phone plan, or the single
    device of a benchmarking phone (a block of one row) — so operators act
    on stacked arrays instead of per-device objects.  ``device_ids``,
    ``datasets`` (the local shards) and ``rngs`` (seeded generators for
    local shuffling) are aligned per device, and :attr:`shards` is the
    shards' ragged row stack, built once for every operator that reads
    it; ``global_weights`` / ``global_bias`` are the parameters downloaded
    at the start of round ``round_index`` (1-based).  The built-in
    operators read and write:

    * ``outputs["weights"]`` / ``outputs["biases"]`` — the stacked
      ``(n_devices, feature_dim)`` / ``(n_devices,)`` working parameters;
    * ``outputs["update_weights"]`` / ``outputs["update_biases"]`` — the
      packaged per-device parameters the platform uploads;
    * ``outputs["local_metrics"]`` — per-device metric dicts in block order.
    """

    device_ids: Sequence[str]
    grade: str
    datasets: list[DeviceDataset]
    feature_dim: int
    backend: NumericBackend = SERVER_BACKEND
    global_weights: np.ndarray | None = None
    global_bias: float = 0.0
    round_index: int = 1
    rngs: list[np.random.Generator | None] | None = None
    outputs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.device_ids) != len(self.datasets):
            raise ValueError("device_ids and datasets must align")
        if self.rngs is not None and len(self.rngs) != len(self.datasets):
            raise ValueError("rngs and datasets must align")

    def __len__(self) -> int:
        return len(self.device_ids)

    @cached_property
    def shards(self) -> RaggedShards:
        """The block's shards as one ragged row stack, concatenated once."""
        return RaggedShards.of(self.datasets)


class Operator:
    """Base class of user-definable operators.

    Subclasses set :attr:`name`, declare :attr:`work` (abstract cost units;
    1.0 ~ one local training epoch over an average shard) and implement
    :meth:`apply_block`.
    """

    name: str = "operator"
    work: float = 0.0

    def apply_block(self, block: BlockOperatorContext) -> None:
        """Execute the operator's effect against a whole block of devices.

        The built-in operators act on the stacked arrays in
        ``block.outputs``; an operator with per-device logic loops over
        ``range(len(block))`` itself.
        """
        raise NotImplementedError


class DownloadModelOp(Operator):
    """Fetch the round's global model into the context.

    The actual bytes move through storage in the platform layer; at the
    operator level the parameters are assumed staged by the runner.
    """

    name = "download_model"
    work = 0.1

    def apply_block(self, block: BlockOperatorContext) -> None:
        if block.global_weights is None:
            raise RuntimeError(
                f"device {block.device_ids[0]}: global model was not staged before the flow ran"
            )
        weights = np.asarray(block.global_weights, dtype=np.float64)
        if weights.shape != (block.feature_dim,):
            raise ValueError(f"weights shape {weights.shape} != ({block.feature_dim},)")
        block.outputs["weights"] = np.tile(weights, (len(block), 1))
        block.outputs["biases"] = np.full(len(block), float(block.global_bias), dtype=np.float64)


class TrainOp(Operator):
    """Local SGD refinement (the paper's 10-epoch, lr 1e-3 recipe)."""

    name = "train"

    def __init__(self, epochs: int = 10, learning_rate: float = 1e-3, batch_size: int = 32) -> None:
        self.epochs = check_count("epochs", epochs)
        self.optimizer = SGD(learning_rate=learning_rate, batch_size=batch_size)
        self.work = float(epochs)

    def apply_block(self, block: BlockOperatorContext) -> None:
        weights = block.outputs.get("weights")
        if weights is None:
            raise RuntimeError("TrainOp requires DownloadModelOp earlier in the flow")
        block.outputs["weights"], block.outputs["biases"] = self.optimizer.run_epochs_block(
            weights, block.outputs["biases"], block.shards, self.epochs, block.rngs, block.backend
        )


class EvalOp(Operator):
    """Evaluate the current model on the local shard."""

    name = "evaluate"
    work = 0.2

    def apply_block(self, block: BlockOperatorContext) -> None:
        weights = block.outputs.get("weights")
        if weights is None:
            raise RuntimeError("EvalOp requires DownloadModelOp earlier in the flow")
        shards = block.shards
        scores = block.backend.gather_scores(weights, block.outputs["biases"], shards.features, shards.owners)
        probabilities = block.backend.sigmoid(scores).astype(np.float64)
        block.outputs["local_metrics"] = block_metrics(shards.labels, probabilities, shards.lengths)


class UploadUpdateOp(Operator):
    """Package the trained parameters for upload.

    The platform layer carries ``outputs["update_weights"]`` /
    ``outputs["update_biases"]`` inline in the plan's message block.
    """

    name = "upload_update"
    work = 0.1

    def apply_block(self, block: BlockOperatorContext) -> None:
        weights = block.outputs.get("weights")
        if weights is None:
            raise RuntimeError("UploadUpdateOp requires a trained model in the flow")
        # Stacked copies, so later operators mutating the working
        # parameters can't corrupt uploads.
        block.outputs["update_weights"] = np.array(weights, dtype=np.float64, copy=True)
        block.outputs["update_biases"] = np.array(
            block.outputs["biases"], dtype=np.float64, copy=True
        )


class OperatorFlow:
    """An ordered operator sequence, executed once per round per device."""

    def __init__(self, operators: Sequence[Operator]) -> None:
        if not operators:
            raise ValueError("an operator flow needs at least one operator")
        for op in operators:
            if not isinstance(op, Operator):
                raise TypeError(f"flow items must be Operators, got {type(op).__name__}")
        self.operators = list(operators)

    @property
    def total_work(self) -> float:
        """Sum of operator work units — the tier cost models scale this."""
        return sum(op.work for op in self.operators)

    def execute_block(self, block: BlockOperatorContext) -> BlockOperatorContext:
        """Run every operator in order against a stacked device block.

        A flow uploads for every device of a block or for none: only the
        stacked update parameters travel on, and a block's sample counts
        come from its plan.
        """
        for op in self.operators:
            op.apply_block(block)
        for key in ("update_weights", "update_biases"):
            rows = block.outputs.get(key)
            if rows is not None and len(rows) != len(block):
                raise RuntimeError(
                    "a flow must upload an update for every device of a block or for none"
                )
        return block

    def describe(self) -> list[str]:
        """Operator names in order (for task specs and monitoring)."""
        return [op.name for op in self.operators]


def standard_fl_flow(
    epochs: int = 10, learning_rate: float = 1e-3, batch_size: int = 32
) -> OperatorFlow:
    """The canonical federated-learning round: download→train→eval→upload."""
    return OperatorFlow(
        [
            DownloadModelOp(),
            TrainOp(epochs=epochs, learning_rate=learning_rate, batch_size=batch_size),
            EvalOp(),
            UploadUpdateOp(),
        ]
    )
