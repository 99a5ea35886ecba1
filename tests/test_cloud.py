"""Tests for the cloud aggregation service and monitor."""

import numpy as np
import pytest
from helpers import one_row

from repro.cloud import (
    AggregationService,
    Monitor,
    SampleThresholdTrigger,
    ScheduledTrigger,
)
from repro.data import SyntheticAvazu
from repro.ml import SERVER_BACKEND, LogisticRegressionModel, ModelUpdate
from repro.simkernel import Simulator


def make_update(device_id, dim=64, n_samples=10, value=1.0):
    return ModelUpdate(
        device_id=device_id,
        round_index=1,
        weights=np.full(dim, value),
        bias=value,
        n_samples=n_samples,
    )


def update_row(device_id, **kwargs):
    """The update as the one-row block a single upload delivers."""
    return one_row(device_id, update=make_update(device_id, **kwargs))


class TestSampleThresholdTrigger:
    def test_aggregates_at_threshold(self):
        sim = Simulator()
        service = AggregationService(
            sim, SampleThresholdTrigger(25), model=LogisticRegressionModel(64, SERVER_BACKEND)
        )
        service.start()
        for i in range(5):
            service.receive_block(update_row(f"d{i}", n_samples=10))
        # Thresholds of 25 samples: aggregation after 3 updates (30) and
        # the remaining 2 updates stay buffered.
        assert service.rounds_completed == 1
        assert service.history[0].n_updates == 3
        assert service.pending_updates == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleThresholdTrigger(0)


class TestScheduledTrigger:
    def test_periodic_aggregation(self):
        sim = Simulator()
        service = AggregationService(
            sim, ScheduledTrigger(60.0, max_rounds=3),
            model=LogisticRegressionModel(16, SERVER_BACKEND),
        )
        service.start()
        for t, device in ((10.0, "a"), (70.0, "b"), (130.0, "c")):
            sim.schedule(t, service.receive_block, update_row(device, dim=16))
        sim.run()
        assert service.rounds_completed == 3
        assert [r.time for r in service.history] == [60.0, 120.0, 180.0]
        assert [r.n_updates for r in service.history] == [1, 1, 1]

    def test_empty_periods_skipped(self):
        sim = Simulator()
        service = AggregationService(
            sim, ScheduledTrigger(30.0, max_rounds=4),
            model=LogisticRegressionModel(16, SERVER_BACKEND),
        )
        service.start()
        sim.schedule(100.0, service.receive_block, update_row("only", dim=16))
        sim.run()
        assert service.rounds_completed == 1

    def test_stop_disarms(self):
        sim = Simulator()
        service = AggregationService(
            sim, ScheduledTrigger(10.0, max_rounds=3),
            model=LogisticRegressionModel(16, SERVER_BACKEND),
        )
        service.start()
        service.receive_block(update_row("a", dim=16))
        service.stop()
        sim.run()
        assert service.rounds_completed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduledTrigger(0, max_rounds=1)
        with pytest.raises(ValueError):
            ScheduledTrigger(10.0, max_rounds=0)


class TestAggregationService:
    def test_message_path_fetches_from_storage(self):
        # One upload is a block of one row; its payload rides along as the
        # row's stacked arrays, so the fold needs no storage round-trip.
        sim = Simulator()
        update = make_update("d0", dim=32)
        model = LogisticRegressionModel(32, SERVER_BACKEND)
        service = AggregationService(sim, SampleThresholdTrigger(5), model=model)
        service.receive_block(one_row("d0", size_bytes=ModelUpdate.wire_size(32), update=update))
        assert service.rounds_completed == 1
        assert service.messages_received == 1
        assert service.bytes_received == ModelUpdate.wire_size(32)
        assert np.array_equal(model.weights, update.weights)

    def test_message_with_non_update_payload_rejected(self):
        sim = Simulator()
        service = AggregationService(
            sim, SampleThresholdTrigger(5), model=LogisticRegressionModel(32, SERVER_BACKEND)
        )
        with pytest.raises(TypeError):
            service.receive_block(one_row("d"))

    def test_fedavg_applied_to_global_model(self):
        sim = Simulator()
        model = LogisticRegressionModel(8, SERVER_BACKEND)
        service = AggregationService(sim, SampleThresholdTrigger(20), model=model)
        service.receive_block(update_row("a", dim=8, n_samples=10, value=1.0))
        service.receive_block(update_row("b", dim=8, n_samples=10, value=3.0))
        assert np.allclose(model.weights, 2.0)
        assert model.bias == pytest.approx(2.0)

    def test_counting_mode_without_model(self):
        sim = Simulator()
        service = AggregationService(sim, SampleThresholdTrigger(30), model=None)
        for i in range(6):
            service.receive_block(one_row(f"d{i}", n_samples=10))
        assert service.rounds_completed == 2
        assert [record.round_index for record in service.history] == [1, 2]

    def test_test_set_evaluation_recorded(self):
        sim = Simulator()
        data = SyntheticAvazu(n_devices=4, records_per_device=10, feature_dim=32, seed=0).generate(
            test_records=200
        )
        service = AggregationService(
            sim, SampleThresholdTrigger(5),
            model=LogisticRegressionModel(32, SERVER_BACKEND), test_set=data.test,
        )
        service.receive_block(update_row("a", dim=32, value=0.0))
        record = service.history[0]
        assert record.test_loss is not None
        assert 0.0 <= record.test_accuracy <= 1.0

    def test_aggregate_empty_rejected(self):
        sim = Simulator()
        service = AggregationService(
            sim, SampleThresholdTrigger(5),
            model=LogisticRegressionModel(8, SERVER_BACKEND),
        )
        with pytest.raises(RuntimeError):
            service.aggregate_now()


class TestMonitor:
    def test_log_and_counters(self):
        sim = Simulator()
        monitor = Monitor(sim)
        monitor.log("task_submitted", task_id="t1")
        sim.schedule(5.0, monitor.log, "round_done")
        sim.run()
        assert monitor.summary() == {"task_submitted": 1, "round_done": 1}
        assert monitor.of_kind("round_done")[0].time == 5.0

    def test_empty_kind_rejected(self):
        monitor = Monitor(Simulator())
        with pytest.raises(ValueError):
            monitor.log("")

    def test_kind_index_matches_full_scan(self):
        """of_kind is index-backed; it must equal a naive rescan."""
        sim = Simulator()
        monitor = Monitor(sim)
        kinds = ["alpha", "beta", "gamma"]
        for i in range(300):
            sim.schedule(float(i), monitor.log, kinds[i % 3])
        sim.run()
        # Interleave post-run appends so the index sees mixed orders too.
        monitor.log("beta", tag="late")
        for kind in kinds + ["ghost"]:
            scanned = [e for e in monitor.events if e.kind == kind]
            assert list(monitor.of_kind(kind)) == scanned
        assert monitor.of_kind("beta")[-1].fields == {"tag": "late"}

    def test_of_kind_is_an_immutable_snapshot(self):
        """of_kind returns the bucket as it stands; later events need a new call."""
        monitor = Monitor(Simulator())
        monitor.log("tick", value=1)
        bucket = monitor.of_kind("tick")
        assert not hasattr(bucket, "append")
        with pytest.raises(TypeError):
            bucket[0] = "junk"
        monitor.log("tick", value=2)
        assert [e.fields["value"] for e in bucket] == [1]
        assert [e.fields["value"] for e in monitor.of_kind("tick")] == [1, 2]
        assert monitor.of_kind("ghost") == ()

    def test_subscribers_see_every_event_in_order(self):
        sim = Simulator()
        monitor = Monitor(sim)
        seen = []
        monitor.subscribe(lambda e: seen.append((e.kind, e.fields.get("i"))))
        monitor.log("a", i=0)
        monitor.log("b", i=1)
        assert seen == [("a", 0), ("b", 1)]
        # A subscriber that logs re-enters safely; nested events dispatch.
        def echo(event):
            if event.kind == "ping":
                monitor.log("pong")
        monitor.subscribe(echo)
        monitor.log("ping")
        assert [k for k, _ in seen] == ["a", "b", "ping", "pong"]
        assert monitor.counters["pong"] == 1

    def test_unsubscribe_detaches(self):
        monitor = Monitor(Simulator())
        seen = []
        cb = monitor.subscribe(lambda e: seen.append(e.kind))
        monitor.log("one")
        monitor.unsubscribe(cb)
        monitor.log("two")
        assert seen == ["one"]

    def test_reentrant_unsubscribe_during_dispatch(self):
        """A subscriber removing itself mid-dispatch must not starve peers."""
        monitor = Monitor(Simulator())
        seen = []

        def one_shot(event):
            seen.append(("one_shot", event.kind))
            monitor.unsubscribe(one_shot)

        monitor.subscribe(one_shot)
        monitor.subscribe(lambda e: seen.append(("steady", e.kind)))
        monitor.log("first")
        monitor.log("second")
        # one_shot fired exactly once; the later subscriber was dispatched
        # for the same event even though the list shifted under the loop.
        assert seen == [("one_shot", "first"), ("steady", "first"), ("steady", "second")]

    def test_reentrant_subscribe_during_dispatch(self):
        """A subscriber added mid-dispatch sees the *next* event, not this one."""
        monitor = Monitor(Simulator())
        seen = []

        def recruiter(event):
            seen.append(("recruiter", event.kind))
            if event.kind == "first":
                monitor.subscribe(lambda e: seen.append(("recruit", e.kind)))

        monitor.subscribe(recruiter)
        monitor.log("first")
        monitor.log("second")
        assert seen == [
            ("recruiter", "first"),
            ("recruiter", "second"),
            ("recruit", "second"),
        ]
