"""Unit tests for FedAvg, clients and operators."""

import inspect
import typing

import numpy as np
import pytest

import repro.ml
from repro.data import SyntheticAvazu
from repro.ml import (
    DEVICE_BACKEND,
    FLClient,
    FedAvgAggregator,
    ModelUpdate,
    OperatorContext,
    OperatorFlow,
    TrainOp,
    fedavg,
    standard_fl_flow,
)
from repro.ml.operators import BlockOperatorContext, DownloadModelOp, EvalOp, UploadUpdateOp


def make_update(device_id, weights, bias=0.0, n_samples=10, round_index=1):
    return ModelUpdate(
        device_id=device_id,
        round_index=round_index,
        weights=np.asarray(weights, dtype=np.float64),
        bias=bias,
        n_samples=n_samples,
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
        with pytest.raises(ValueError):
            fedavg([make_update("a", [1.0]), make_update("b", [1.0, 2.0])])

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
        aggregator = FedAvgAggregator()
        aggregator.add(make_update("a", [2.0], n_samples=5))
        aggregator.add(make_update("b", [4.0], n_samples=5))
        assert len(aggregator) == 2
        assert aggregator.pending_samples == 10
        assert aggregator.pending_devices == ["a", "b"]
        weights, bias, count = aggregator.aggregate()
        assert count == 2
        assert np.allclose(weights, [3.0])
        assert len(aggregator) == 0

    def test_aggregator_type_check(self):
        aggregator = FedAvgAggregator()
        with pytest.raises(TypeError):
            aggregator.add({"weights": [1.0]})

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            FedAvgAggregator().aggregate()

    def test_payload_bytes_scale_with_dim(self):
        small = make_update("a", np.zeros(10))
        large = make_update("a", np.zeros(1000))
        assert large.payload_bytes() > small.payload_bytes()


@pytest.fixture(scope="module")
def federated_data():
    return SyntheticAvazu(
        n_devices=20, records_per_device=30, feature_dim=256, seed=7
    ).generate(test_records=600)


class TestFLClient:
    def test_local_train_produces_update(self, federated_data):
        shard = federated_data.shard(federated_data.device_ids()[0])
        client = FLClient(shard, feature_dim=256, epochs=2, learning_rate=0.05)
        update = client.local_train(np.zeros(256), 0.0, round_index=3)
        assert update.device_id == shard.device_id
        assert update.round_index == 3
        assert update.n_samples == shard.n_samples
        assert update.weights.shape == (256,)
        assert np.abs(update.weights).sum() > 0

    def test_backend_recorded_in_metadata(self, federated_data):
        shard = federated_data.shard(federated_data.device_ids()[0])
        client = FLClient(shard, feature_dim=256, backend=DEVICE_BACKEND, epochs=1)
        update = client.local_train(np.zeros(256), 0.0, round_index=1)
        assert update.metadata["backend"] == "mnn-device"

    def test_invalid_epochs(self, federated_data):
        shard = federated_data.shard(federated_data.device_ids()[0])
        with pytest.raises(ValueError):
            FLClient(shard, feature_dim=256, epochs=0)


class TestOperatorFlow:
    def make_context(self, federated_data, with_model=True):
        shard = federated_data.shard(federated_data.device_ids()[0])
        context = OperatorContext(
            device_id=shard.device_id,
            grade="High",
            dataset=shard,
            feature_dim=256,
        )
        if with_model:
            context.global_weights = np.zeros(256)
            context.global_bias = 0.0
        return context

    def test_standard_flow_round_trip(self, federated_data):
        flow = standard_fl_flow(epochs=2, learning_rate=0.05)
        context = self.make_context(federated_data)
        flow.execute(context)
        update = context.outputs["update"]
        assert update.device_id == context.device_id
        assert "local_metrics" in context.outputs
        assert update.metadata["grade"] == "High"

    def test_flow_names(self):
        flow = standard_fl_flow()
        assert flow.describe() == ["download_model", "train", "evaluate", "upload_update"]
        assert flow.total_work == pytest.approx(10.4)

    def test_download_requires_staged_model(self, federated_data):
        flow = OperatorFlow([DownloadModelOp()])
        context = self.make_context(federated_data, with_model=False)
        with pytest.raises(RuntimeError):
            flow.execute(context)

    def test_train_requires_download(self, federated_data):
        flow = OperatorFlow([TrainOp(epochs=1)])
        context = self.make_context(federated_data)
        with pytest.raises(RuntimeError):
            flow.execute(context)

    def test_eval_requires_download(self, federated_data):
        context = self.make_context(federated_data)
        with pytest.raises(RuntimeError):
            OperatorFlow([EvalOp()]).execute(context)

    def test_upload_requires_model(self, federated_data):
        context = self.make_context(federated_data)
        with pytest.raises(RuntimeError):
            OperatorFlow([UploadUpdateOp()]).execute(context)

    def test_empty_flow_rejected(self):
        with pytest.raises(ValueError):
            OperatorFlow([])

    def test_non_operator_rejected(self):
        with pytest.raises(TypeError):
            OperatorFlow([lambda ctx: None])

    def test_train_work_scales_with_epochs(self):
        assert TrainOp(epochs=5).work == pytest.approx(5.0)

    def test_context_type_hints_resolve(self):
        for context_class in (OperatorContext, BlockOperatorContext):
            assert "outputs" in typing.get_type_hints(context_class)
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

    def test_block_without_block_support_runs_row_by_row(self, federated_data):
        class RowUpload(UploadUpdateOp):
            supports_block = False

        stacked = standard_fl_flow(epochs=1)
        by_row = OperatorFlow(list(stacked.operators[:-1]) + [RowUpload()])
        assert stacked.supports_block and not by_row.supports_block

        def run(flow):
            ids = federated_data.device_ids()[:3]
            block = BlockOperatorContext(
                device_ids=ids,
                grade="High",
                datasets=[federated_data.shard(d) for d in ids],
                feature_dim=256,
                global_weights=np.zeros(256),
                rngs=[np.random.default_rng(i) for i in range(3)],
            )
            return flow.execute_block(block).outputs

        rows, block = run(by_row), run(stacked)
        assert rows["update_weights"].tobytes() == block["update_weights"].tobytes()
        assert rows["update_biases"].tobytes() == block["update_biases"].tobytes()

    def test_row_fallback_rejects_partial_uploads(self, federated_data):
        class EveryOtherUpload(UploadUpdateOp):
            supports_block = False

            def apply(self, context):
                if context.device_id.endswith(("0", "2", "4", "6", "8")):
                    super().apply(context)

        ids = federated_data.device_ids()[:2]
        block = BlockOperatorContext(
            device_ids=ids,
            grade="High",
            datasets=[federated_data.shard(d) for d in ids],
            feature_dim=256,
            global_weights=np.zeros(256),
        )
        flow = OperatorFlow([DownloadModelOp(), EveryOtherUpload()])
        with pytest.raises(RuntimeError, match="every device of a block or for none"):
            flow.execute_block(block)
        # No uploads at all is fine: the block simply carries no updates.
        quiet = OperatorFlow([DownloadModelOp(), type("Quiet", (EvalOp,), {"supports_block": False})()])
        block.outputs.clear()
        assert "update_weights" not in quiet.execute_block(block).outputs
