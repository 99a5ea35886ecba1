"""Unit tests for FedAvg, clients and operators."""

import inspect
import typing

import numpy as np
import pytest

from helpers import one_row

import repro.ml
from repro.cloud.aggregation import AggregationService, AggregationTrigger
from repro.data import SyntheticAvazu
from repro.ml import (
    DEVICE_BACKEND,
    SERVER_BACKEND,
    BlockOperatorContext,
    BlockTrainer,
    FedAvgPartial,
    LogisticRegressionModel,
    ModelUpdate,
    OperatorFlow,
    RaggedShards,
    TrainOp,
    standard_fl_flow,
)
from repro.ml.operators import DownloadModelOp, EvalOp, UploadUpdateOp
from repro.simkernel import Simulator


def make_update(device_id, weights, bias=0.0, n_samples=10, round_index=1):
    return ModelUpdate(
        device_id=device_id,
        round_index=round_index,
        weights=np.asarray(weights, dtype=np.float64),
        bias=bias,
        n_samples=n_samples,
    )


def fedavg(updates):
    """The updates stacked into one block and folded by the production primitive."""
    dim = len(updates[0].weights) if updates else 0
    return FedAvgPartial.from_arrays(
        np.array([u.weights for u in updates]).reshape(len(updates), dim),
        [u.bias for u in updates],
        [u.n_samples for u in updates],
    ).finalize()


def service_for(dim):
    return AggregationService(
        Simulator(), AggregationTrigger(), model=LogisticRegressionModel(dim, SERVER_BACKEND)
    )


class TestFedAvg:
    def test_weighted_mean(self):
        a = make_update("a", [1.0, 0.0], bias=1.0, n_samples=30)
        b = make_update("b", [0.0, 1.0], bias=0.0, n_samples=10)
        weights, bias = fedavg([a, b])
        assert np.allclose(weights, [0.75, 0.25])
        assert bias == pytest.approx(0.75)

    def test_single_update_identity(self):
        update = make_update("a", [0.5, -0.5], bias=0.3)
        weights, bias = fedavg([update])
        assert np.allclose(weights, update.weights)
        assert bias == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_shape_mismatch_rejected(self):
        service = service_for(1)
        service.receive_block(one_row("a", update=make_update("a", [1.0])))
        service.receive_block(one_row("b", update=make_update("b", [1.0, 2.0])))
        with pytest.raises(ValueError):
            service.aggregate_now()

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            make_update("a", [1.0], n_samples=-1)

    def test_zero_sample_update_allowed_but_weightless(self):
        # Zero-sample updates may occur (a device lost its shard mid-round)
        # and must not move the aggregate.
        backed = make_update("a", [2.0], n_samples=4)
        ghost = make_update("g", [100.0], n_samples=0)
        weights, bias = fedavg([backed, ghost])
        assert np.allclose(weights, [2.0])
        with pytest.raises(ValueError):
            fedavg([ghost])  # zero total samples cannot be averaged

    def test_aggregator_lifecycle(self):
        # The service's buffer is the aggregator: rows stack up, one fold drains them.
        service = service_for(1)
        service.receive_block(one_row("a", update=make_update("a", [2.0], n_samples=5)))
        service.receive_block(one_row("b", update=make_update("b", [4.0], n_samples=5)))
        assert service.pending_updates == 2
        assert service.pending_samples == 10
        record = service.aggregate_now()
        assert record.n_updates == 2
        assert np.allclose(service.model.weights, [3.0])
        assert service.pending_updates == 0

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            fedavg([])
        with pytest.raises(RuntimeError):
            service_for(1).aggregate_now()

    def test_payload_bytes_scale_with_dim(self):
        assert ModelUpdate.wire_size(1000) - ModelUpdate.wire_size(10) == 990 * 8
        assert ModelUpdate.wire_size(0) > 0  # bias + envelope


@pytest.fixture(scope="module")
def federated_data():
    return SyntheticAvazu(
        n_devices=20, records_per_device=30, feature_dim=256, seed=7
    ).generate(test_records=600)


class TestFLClient:
    """One federated-learning client = a one-segment layout through :class:`BlockTrainer`."""

    def test_local_train_produces_update(self, federated_data):
        shard = federated_data.shard(federated_data.device_ids()[0])
        trainer = BlockTrainer(256, SERVER_BACKEND, epochs=2, learning_rate=0.05)
        weights, biases = trainer.train(np.zeros((1, 256)), np.zeros(1), RaggedShards.of([shard]), None)
        assert weights.shape == (1, 256) and biases.shape == (1,)
        assert np.abs(weights).sum() > 0

    def test_backend_shapes_the_update(self, federated_data):
        shard = federated_data.shard(federated_data.device_ids()[0])
        server, device = (
            BlockTrainer(256, backend, epochs=3, learning_rate=0.05).train(
                np.zeros((1, 256)), np.zeros(1), RaggedShards.of([shard]), None
            )
            for backend in (SERVER_BACKEND, DEVICE_BACKEND)
        )
        assert np.allclose(server[0], device[0], atol=1e-4)
        assert not np.array_equal(server[0], device[0])

    def test_invalid_epochs(self, federated_data):
        with pytest.raises(ValueError):
            BlockTrainer(256, SERVER_BACKEND, epochs=0, learning_rate=0.05)

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: TrainOp(learning_rate=float("nan")), "^learning_rate must be a finite number > 0, got nan$"),
            (lambda: TrainOp(learning_rate=0), "^learning_rate must be a finite number > 0, got 0$"),
            (lambda: TrainOp(batch_size=0), "^batch_size must be an integer >= 1, got 0$"),
            (lambda: TrainOp(epochs=2.0), "^epochs must be an integer >= 1, got 2.0$"),
            (
                lambda: BlockTrainer(256, SERVER_BACKEND, epochs=1, learning_rate=float("nan")),
                "^learning_rate must be a finite number > 0",
            ),
            (lambda: BlockTrainer(0, SERVER_BACKEND, epochs=1, learning_rate=0.1), "^feature_dim must be an integer"),
        ],
    )
    def test_flow_numbers_fail_at_construction(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_rngs_must_align_with_shards(self, federated_data):
        shards = [federated_data.shard(d) for d in federated_data.device_ids()[:3]]
        trainer = BlockTrainer(256, SERVER_BACKEND, epochs=1, learning_rate=0.05)
        with pytest.raises(ValueError, match="one generator"):
            trainer.train(np.zeros((3, 256)), np.zeros(3), RaggedShards.of(shards), [None, None])
        with pytest.raises(ValueError, match="rngs and datasets must align"):
            BlockOperatorContext(
                device_ids=["a", "b", "c"], grade="High", datasets=shards, feature_dim=256, rngs=[None]
            )


class TestOperatorFlow:
    def make_block(self, federated_data, with_model=True, n_devices=1):
        ids = federated_data.device_ids()[:n_devices]
        return BlockOperatorContext(
            device_ids=ids,
            grade="High",
            datasets=[federated_data.shard(d) for d in ids],
            feature_dim=256,
            global_weights=np.zeros(256) if with_model else None,
        )

    def test_standard_flow_round_trip(self, federated_data):
        flow = standard_fl_flow(epochs=2, learning_rate=0.05)
        block = self.make_block(federated_data, n_devices=3)
        outputs = flow.execute_block(block).outputs
        assert outputs["update_weights"].shape == (3, 256)
        assert outputs["update_biases"].shape == (3,)
        assert len(outputs["local_metrics"]) == 3
        assert np.abs(outputs["update_weights"]).sum(axis=1).all()

    def test_flow_names(self):
        flow = standard_fl_flow()
        assert flow.describe() == ["download_model", "train", "evaluate", "upload_update"]
        assert flow.total_work == pytest.approx(10.4)

    def test_download_requires_staged_model(self, federated_data):
        flow = OperatorFlow([DownloadModelOp()])
        with pytest.raises(RuntimeError):
            flow.execute_block(self.make_block(federated_data, with_model=False))

    def test_train_requires_download(self, federated_data):
        flow = OperatorFlow([TrainOp(epochs=1)])
        with pytest.raises(RuntimeError):
            flow.execute_block(self.make_block(federated_data))

    def test_eval_requires_download(self, federated_data):
        with pytest.raises(RuntimeError):
            OperatorFlow([EvalOp()]).execute_block(self.make_block(federated_data))

    def test_upload_requires_model(self, federated_data):
        with pytest.raises(RuntimeError):
            OperatorFlow([UploadUpdateOp()]).execute_block(self.make_block(federated_data))

    def test_empty_flow_rejected(self):
        with pytest.raises(ValueError):
            OperatorFlow([])

    def test_non_operator_rejected(self):
        with pytest.raises(TypeError):
            OperatorFlow([lambda ctx: None])

    def test_train_work_scales_with_epochs(self):
        assert TrainOp(epochs=5).work == pytest.approx(5.0)

    def test_context_type_hints_resolve(self):
        assert "outputs" in typing.get_type_hints(BlockOperatorContext)
        # Every annotation on the package's public surface must name
        # something importable: classes, their public methods, functions.
        for name in repro.ml.__all__:
            public = getattr(repro.ml, name)
            if inspect.isclass(public):
                typing.get_type_hints(public)
                for attr, member in vars(public).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                        typing.get_type_hints(member)
            elif inspect.isfunction(public):
                typing.get_type_hints(public)

    def test_row_fallback_rejects_partial_uploads(self, federated_data):
        # A user operator may loop over the rows itself, but a flow uploads
        # for every device of a block or for none.
        class EveryOtherUpload(UploadUpdateOp):
            def apply_block(self, block):
                rows = [row for row, device_id in enumerate(block.device_ids) if int(device_id[-1]) % 2 == 0]
                block.outputs["update_weights"] = block.outputs["weights"][rows]
                block.outputs["update_biases"] = block.outputs["biases"][rows]

        block = self.make_block(federated_data, n_devices=2)
        flow = OperatorFlow([DownloadModelOp(), EveryOtherUpload()])
        with pytest.raises(RuntimeError, match="every device of a block or for none"):
            flow.execute_block(block)
        # No uploads at all is fine: the block simply carries no updates.
        quiet = OperatorFlow([DownloadModelOp(), EvalOp()])
        block.outputs.clear()
        assert "update_weights" not in quiet.execute_block(block).outputs
