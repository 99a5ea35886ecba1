"""Machine-learning substrate: logistic-regression CTR training + FedAvg.

The paper's workload is click-through-rate prediction with logistic
regression (lr 1e-3, 10 local epochs, FedAvg aggregation).  This package
implements that workload in pure numpy, including the two *numeric
backends* that stand in for the paper's PyMNN (server-side) and C++ MNN
(device-side) operator implementations: identical math with different
floating-point precision and accumulation order, producing the small
(<0.5%) accuracy deviations the paper studies in Fig. 6.
"""

from repro.ml.backends import DEVICE_BACKEND, SERVER_BACKEND, NumericBackend
from repro.ml.client import BlockTrainer, FLClient
from repro.ml.fedavg import FedAvgAggregator, FedAvgPartial, ModelUpdate, fedavg
from repro.ml.metrics import accuracy, block_metrics, log_loss, roc_auc
from repro.ml.model import LogisticRegressionModel
from repro.ml.operators import (
    BlockOperatorContext,
    DownloadModelOp,
    EvalOp,
    Operator,
    OperatorContext,
    OperatorFlow,
    TrainOp,
    UploadUpdateOp,
    standard_fl_flow,
)
from repro.ml.optimizer import SGD

__all__ = [
    "BlockOperatorContext",
    "BlockTrainer",
    "DEVICE_BACKEND",
    "DownloadModelOp",
    "EvalOp",
    "FLClient",
    "FedAvgAggregator",
    "FedAvgPartial",
    "LogisticRegressionModel",
    "ModelUpdate",
    "NumericBackend",
    "Operator",
    "OperatorContext",
    "OperatorFlow",
    "SERVER_BACKEND",
    "SGD",
    "TrainOp",
    "UploadUpdateOp",
    "accuracy",
    "block_metrics",
    "fedavg",
    "log_loss",
    "roc_auc",
    "standard_fl_flow",
]
