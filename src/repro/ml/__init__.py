"""Machine-learning substrate: logistic-regression CTR training + FedAvg.

The paper's workload is click-through-rate prediction with logistic
regression (lr 1e-3, 10 local epochs, FedAvg aggregation).  This package
implements that workload in pure numpy, including the two *numeric
backends* that stand in for the paper's PyMNN (server-side) and C++ MNN
(device-side) operator implementations: identical math with different
floating-point precision and accumulation order, producing the small
(<0.5%) accuracy deviations the paper studies in Fig. 6.

There is one numeric kernel: every routine acts on a block of devices whose
shards are one ragged stack of rows (:class:`RaggedShards`), and one device
is a one-segment layout.  The per-device oracle the kernel equals row by
row lives in ``tests/reference/ml_reference.py``.
"""

from repro.ml.backends import DEVICE_BACKEND, SERVER_BACKEND, NumericBackend
from repro.ml.client import BlockTrainer
from repro.ml.fedavg import FedAvgPartial, ModelUpdate
from repro.ml.metrics import block_metrics
from repro.ml.model import LogisticRegressionModel
from repro.ml.operators import (
    BlockOperatorContext,
    DownloadModelOp,
    EvalOp,
    Operator,
    OperatorFlow,
    TrainOp,
    UploadUpdateOp,
    standard_fl_flow,
)
from repro.ml.optimizer import SGD
from repro.ml.ragged import RaggedShards

__all__ = [
    "BlockOperatorContext",
    "BlockTrainer",
    "DEVICE_BACKEND",
    "DownloadModelOp",
    "EvalOp",
    "FedAvgPartial",
    "LogisticRegressionModel",
    "ModelUpdate",
    "NumericBackend",
    "Operator",
    "OperatorFlow",
    "RaggedShards",
    "SERVER_BACKEND",
    "SGD",
    "TrainOp",
    "UploadUpdateOp",
    "block_metrics",
    "standard_fl_flow",
]
