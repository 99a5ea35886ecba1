"""Fault-tolerant transport: channel model, retries, dedup, deadlines.

The differential heart of the suite proves the four transport
guarantees the robustness work leans on:

(a) a lossless :class:`ChannelModel` leaves the scenario report
    byte-identical to running with no channel at all,
(b) lossy runs are byte-identical across repeats,
(c) duplicated delivery + the ingestion dedup table is fold-equivalent
    to exactly-once delivery, and
(d) a deadline-closed round aggregates exactly the partial fold over
    on-time updates.
"""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from helpers import CallbackSink
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.cloud_reference import ReferenceTransportChannel, fedavg
from reference.cloud_reference import plan_upload as reference_plan_upload
from reference.tier_reference import materialize

from repro.cloud import (
    AggregationService,
    ChannelModel,
    ChannelWindow,
    CloudIngestSink,
    TransportChannel,
)
from repro.cloud.aggregation import AggregationTrigger
from repro.cloud.transport import WINDOW_KINDS
from repro.deviceflow import MessageBlock
from repro.ml.backends import SERVER_BACKEND
from repro.ml.fedavg import ModelUpdate
from repro.ml.model import LogisticRegressionModel
from repro.observability.sla import known_metrics, metric_value
from repro.scenarios import (
    ArrivalSpec,
    DispatchSpec,
    FaultSpec,
    GradeSpec,
    ScenarioSpec,
    TenantSpec,
    TransportSpec,
    build_scenario,
    run_scenario,
)
from repro.scenarios.__main__ import main as scenarios_main
from repro.simkernel import RandomStreams, Simulator


def transport_scenario(transport=None, faults=(), seed=3) -> ScenarioSpec:
    """Two tenants — direct numeric uplink + DeviceFlow background."""
    return ScenarioSpec(
        name="transport-diff",
        seed=seed,
        horizon_s=600.0,
        transport=transport,
        faults=list(faults),
        tenants=[
            TenantSpec(
                name="up",
                priority=5,
                rounds=2,
                numeric=True,
                feature_dim=16,
                records_per_device=4,
                grades=[GradeSpec(grade="High", n_devices=12, bundles=8)],
                arrival=ArrivalSpec(kind="trace", times=[0.0, 60.0]),
            ),
            TenantSpec(
                name="bg",
                priority=2,
                grades=[GradeSpec(grade="Low", n_devices=8, bundles=6)],
                arrival=ArrivalSpec(kind="trace", times=[10.0]),
                dispatch=DispatchSpec(kind="realtime", thresholds=[4]),
            ),
        ],
    )


LOSSY = TransportSpec(
    latency_s=2.0,
    jitter_s=1.0,
    loss_prob=0.2,
    dup_prob=0.1,
    retry_base_s=2.0,
    retry_cap_s=10.0,
    max_attempts=3,
    deadline_s=300.0,
)
LOSSY_FAULTS = (
    FaultSpec(kind="message_loss", at=50.0, until=200.0, factor=0.3),
    FaultSpec(kind="service_outage", at=80.0, until=120.0),
)


# ----------------------------------------------------------------------
# channel model mechanics
# ----------------------------------------------------------------------
class TestChannelModel:
    def plans(self, model, seed=0, n=32, t0=100.0, scope=""):
        rng = RandomStreams(seed).get("transport.t.dev")
        return [model.plan_upload(rng, t0 + 5.0 * i, scope) for i in range(n)]

    def test_plans_deterministic_across_repeats(self):
        model = ChannelModel(latency_s=2.0, jitter_s=1.0, loss_prob=0.3, dup_prob=0.2)
        assert self.plans(model) == self.plans(model)

    def test_lossless_channel_delivers_at_latency_without_draws(self):
        model = ChannelModel(latency_s=3.0)
        rng = RandomStreams(0).get("s")
        plan = model.plan_upload(rng, 10.0, "")
        assert plan.arrival == 13.0
        assert plan.retries == 0
        assert not plan.duplicate

    def test_certain_loss_abandons_after_max_attempts(self):
        model = ChannelModel(
            loss_prob=0.0,
            max_attempts=3,
            windows=[ChannelWindow(kind="loss", at=0.0, until=1e9, prob=1.0)],
        )
        rng = RandomStreams(0).get("s")
        plan = model.plan_upload(rng, 5.0, "")
        assert plan.arrival is None
        assert plan.retries == model.max_attempts - 1
        assert not plan.duplicate

    def test_outage_rejects_then_retry_lands_after_window(self):
        model = ChannelModel(
            latency_s=1.0,
            retry_base_s=30.0,
            max_attempts=4,
            windows=[ChannelWindow(kind="outage", at=0.0, until=10.0)],
        )
        rng = RandomStreams(0).get("s")
        plan = model.plan_upload(rng, 0.0, "")
        assert plan.arrival is not None and plan.arrival > 10.0
        assert plan.retries >= 1

    def test_backoff_is_capped(self):
        model = ChannelModel(
            retry_base_s=100.0,
            retry_cap_s=8.0,
            max_attempts=3,
            windows=[ChannelWindow(kind="loss", at=0.0, until=1e9, prob=1.0)],
        )
        # With every send lost, the two backoffs are each <= cap, so the
        # outage test above can't mask an uncapped schedule: check via a
        # loss window ending right after the capped retries.
        model2 = ChannelModel(
            latency_s=0.0,
            retry_base_s=100.0,
            retry_cap_s=8.0,
            max_attempts=3,
            windows=[ChannelWindow(kind="loss", at=0.0, until=16.1, prob=1.0)],
        )
        rng = RandomStreams(1).get("s")
        plan = model.plan_upload(rng, 0.0, "")
        assert plan.arrival is None
        rng = RandomStreams(1).get("s")
        plan2 = model2.plan_upload(rng, 0.0, "")
        if plan2.arrival is not None:
            assert plan2.arrival <= 16.1

    def test_tenant_scoped_window_only_hits_its_tenant(self):
        model = ChannelModel(
            windows=[ChannelWindow(kind="loss", at=0.0, until=1e9, prob=1.0, tenant="a")]
        )
        rng = RandomStreams(0).get("s")
        assert model.plan_upload(rng, 0.0, scope="a").arrival is None
        assert model.plan_upload(rng, 0.0, scope="b").arrival == 0.0
        assert model.active_for("a")
        assert not model.active_for("b")

    def test_trivial_model_is_inactive(self):
        assert not ChannelModel().active_for("any")
        assert ChannelModel(latency_s=0.5).active_for("any")
        assert ChannelModel(dup_prob=0.1).active_for("any")

    def test_window_probabilities_combine_as_independent_sources(self):
        model = ChannelModel(
            loss_prob=0.5,
            windows=[ChannelWindow(kind="loss", at=0.0, until=10.0, prob=0.5)],
        )
        assert model.loss_prob_at(5.0, "") == pytest.approx(0.75)
        assert model.loss_prob_at(15.0, "") == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"loss_prob": 1.0}, "loss_prob must be in [0, 1), got 1.0"),
            ({"dup_prob": -0.1}, "dup_prob must be in [0, 1], got -0.1"),
            ({"max_attempts": 0}, "max_attempts must be an integer >= 1, got 0"),
            ({"retry_base_s": 0.0}, "retry_base_s must be a finite number > 0, got 0.0"),
            # Both used to pass construction and die mid-run (a bare TypeError
            # from ``plan_upload`` inside a pool callback / from ``from_dict``).
            ({"max_attempts": 2.5}, "max_attempts must be an integer >= 1, got 2.5"),
            ({"loss_prob": "high"}, "loss_prob must be in [0, 1), got 'high'"),
        ],
    )
    def test_validation_errors_carry_the_value(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ChannelModel(**kwargs)
        if set(kwargs) <= {"max_attempts", "loss_prob"}:
            # The scenario-file spec rejects the same values, field path first;
            # a file's string is refused as not a number before any range is read.
            [(field, value)] = kwargs.items()
            if isinstance(value, str):
                message = f"{field} must be a number, got {value!r}"
            data = transport_scenario(transport=TransportSpec()).to_dict()
            data["transport"].update(kwargs)
            with pytest.raises(ValueError, match=r"^transport\." + re.escape(message)):
                ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "field", ["latency_s", "jitter_s", "loss_prob", "dup_prob", "retry_base_s", "retry_cap_s", "max_attempts"]
    )
    def test_a_bool_is_not_a_number(self, field, flag):
        # True used to build a one-attempt channel or a 1 s latency.
        message = re.escape(f"{field} must be ") + ".*" + re.escape(f", got {flag}")
        with pytest.raises(ValueError, match=r"^" + message + r"$"):
            ChannelModel(**{field: flag})
        with pytest.raises(ValueError, match=r"^transport\." + message + r"$"):
            TransportSpec(**{field: flag})

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("field", ["at", "until", "prob"])
    def test_a_bool_is_not_a_window_number(self, field, flag):
        fields = {"at": 0.0, "until": 5.0, "prob": 0.5, field: flag}
        message = re.escape(f"{field} must be ") + ".*" + re.escape(f", got {flag}")
        with pytest.raises(ValueError, match=r"^" + message + r"$"):
            ChannelWindow(kind="loss", **fields)

    def test_window_validation(self):
        with pytest.raises(ValueError, match=re.escape("unknown channel window kind 'flood'")):
            ChannelWindow(kind="flood", at=0.0, until=1.0)
        with pytest.raises(ValueError, match=re.escape("until=1.0 <= at=2.0")):
            ChannelWindow(kind="loss", at=2.0, until=1.0)


# ----------------------------------------------------------------------
# planner vs the per-attempt oracle
# ----------------------------------------------------------------------
# Whole-second times alongside arbitrary ones, so sends land exactly on window edges.
def times(low: float, high: float):
    return st.one_of(st.integers(int(low), int(high)).map(float), st.floats(low, high))


channel_windows = st.builds(
    lambda kind, at, length, prob, tenant: ChannelWindow(
        kind=kind, at=at, until=at + length, prob=prob, tenant=tenant
    ),
    kind=st.sampled_from(WINDOW_KINDS),
    at=times(0.0, 300.0),
    length=times(1.0, 200.0),
    prob=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    tenant=st.sampled_from(["", "a", "b"]),
)
channel_models = st.builds(
    ChannelModel,
    latency_s=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    jitter_s=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    loss_prob=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    dup_prob=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    retry_base_s=st.floats(0.5, 10.0),
    retry_cap_s=st.floats(1.0, 60.0),
    max_attempts=st.integers(1, 6),
    windows=st.lists(channel_windows, max_size=8),
)


class TestPlannerMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        model=channel_models,
        scope=st.sampled_from(["", "a", "b"]),
        resolved=st.booleans(),
        t0s=st.lists(times(0.0, 400.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_plans_and_same_draw_count(self, model, scope, resolved, t0s, seed):
        # A tenant's name and the ScopeWindows resolved for it are the same scope.
        scope_arg = model.windows_for(scope) if resolved else scope
        mine = RandomStreams(seed).fresh("transport.t.dev")
        oracle = RandomStreams(seed).fresh("transport.t.dev")
        for t0 in t0s:
            assert model.plan_upload(mine, t0, scope_arg) == reference_plan_upload(
                model, oracle, t0, scope
            )
        # Equal next draws: both planners consumed the same number of draws.
        assert mine.random() == oracle.random()


# ----------------------------------------------------------------------
# the channel moved no event and no draw: block loop vs the per-upload oracle
# ----------------------------------------------------------------------
def window_of(kind):
    return st.builds(
        lambda at, length, prob, tenant: ChannelWindow(kind=kind, at=at, until=at + length, prob=prob, tenant=tenant),
        at=times(0.0, 40.0), length=times(1.0, 30.0), prob=st.floats(0.05, 1.0), tenant=st.sampled_from(["", "t"]),
    )


def one_of_each_kind():
    """A loss, a duplication and an outage window, in a drawn order, plus up to three more of any kind."""
    kinds = st.tuples(st.permutations(WINDOW_KINDS), st.lists(st.sampled_from(WINDOW_KINDS), max_size=3))
    return kinds.flatmap(lambda picked: st.tuples(*map(window_of, [*picked[0], *picked[1]])).map(list))


lossy_models = st.builds(
    ChannelModel,
    latency_s=st.floats(0.0, 4.0),
    jitter_s=st.floats(0.05, 3.0),
    loss_prob=st.floats(0.0, 0.7),
    dup_prob=st.floats(0.05, 0.9),
    retry_base_s=st.floats(0.5, 6.0),
    retry_cap_s=st.floats(1.0, 20.0),
    max_attempts=st.integers(1, 5),
    windows=one_of_each_kind(),
)


def lossy_round(model, waves, deadline, seed, oracle, whole=False):
    """One round's waves through a channel at their completion times (``whole``: as one block at the
    last one's, so earlier rows arrive in the past and land at once); everything the channel leaves behind."""
    sim, streams, log = Simulator(), RandomStreams(seed), []
    sink = CallbackSink(lambda o: log.append((sim.now, o.device_id, o.round_index, o.finished_at)))
    if oracle:
        channel = ReferenceTransportChannel(sim, model, sink, streams, "t", scope="t")
    else:
        channel = TransportChannel(sim, model, sink, streams, scope="t")
    channel.begin_round(1, deadline=deadline)
    growth = []

    def accept(block):
        if oracle:
            for outcome in materialize(block):
                channel.accept(outcome)
            return
        before, counted = sim.pending_events, channel.round.delivered + channel.round.duplicates
        channel.accept_block(block)
        growth.append((sim.pending_events - before, channel.round.delivered + channel.round.duplicates - counted))

    start = 0
    blocks = []
    for time, size in waves:
        ids = [f"d{i:03d}" for i in range(start, start + size)]
        blocks.append(MessageBlock(task_id="t", round_index=1, device_ids=ids, grade="High", size_bytes=8,
                                   finished_at=np.full(size, time)))
        start += size
    if whole:
        blocks = MessageBlock.coalesce(blocks)
    for block in blocks:
        sim.schedule_at(float(block.finished_at.max()), accept, block)
    sim.run()
    counters = returned(channel.finish_round())
    ids = [f"d{i:03d}" for i in range(start)]
    if oracle:
        generators = [streams._cache[f"transport.t.{i}"].bit_generator.state["state"] for i in ids]
        states = [(state["state"], state["inc"]) for state in generators]
    else:
        bank = channel.seed("t", ())
        states = [(cursor._state[cursor._row], cursor._inc[cursor._row]) for cursor in map(bank.stream, ids)]
        assert all(events == scheduled for events, scheduled in growth), growth
    return log, counters, states


def returned(generator):
    """The return value of a generator that has nothing left to wait for."""
    try:
        next(generator)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("the round still had deliveries in flight")


class TestChannelMovesNoEventAndNoDraw:
    @settings(max_examples=80, deadline=None)
    @given(
        model=lossy_models,
        waves=st.lists(st.tuples(times(0.0, 60.0), st.integers(1, 8)), min_size=1, max_size=5).map(sorted),
        deadline=st.none() | times(5.0, 90.0),
        seed=st.integers(0, 2**40),
        whole=st.booleans(),
    )
    def test_block_loop_equals_the_per_upload_oracle(self, model, waves, deadline, seed, whole):
        log, counters, states = lossy_round(model, waves, deadline, seed, oracle=False, whole=whole)
        assert (log, counters, states) == lossy_round(model, waves, deadline, seed, oracle=True, whole=whole)
        assert counters.uploads == sum(size for _, size in waves)
        assert len(log) == counters.delivered + counters.duplicates

    def test_the_strategies_reach_every_fate(self):
        """Duplicates, retries, abandons and late drops all occur under the drawn models."""
        model = ChannelModel(latency_s=1.0, jitter_s=2.0, loss_prob=0.3, dup_prob=0.5, retry_base_s=1.0,
                             retry_cap_s=4.0, max_attempts=3, windows=[
                                 ChannelWindow(kind="loss", at=3.0, until=9.0, prob=0.5),
                                 ChannelWindow(kind="duplication", at=0.0, until=20.0, prob=0.5, tenant="t"),
                                 ChannelWindow(kind="outage", at=10.0, until=12.0)])
        _, counters, _ = lossy_round(model, [(2.0, 8), (4.0, 8), (13.0, 8)], 15.0, 5, oracle=False)
        assert min(counters.duplicates, counters.retries, counters.abandoned, counters.late_drops) > 0, counters


# ----------------------------------------------------------------------
# ingestion gate: dedup + deadlines
# ----------------------------------------------------------------------
def make_numeric_sink(dedup=True):
    sim = Simulator()
    model = LogisticRegressionModel(4, SERVER_BACKEND)
    service = AggregationService(sim, AggregationTrigger(), model=model)
    sink = CloudIngestSink(sim, service, dedup=dedup)
    return sim, service, sink, model


def make_update(device_id, round_index=1, seed=0):
    rng = np.random.default_rng(seed)
    return ModelUpdate(
        device_id=device_id,
        round_index=round_index,
        weights=rng.normal(size=4),
        bias=float(rng.normal()),
        n_samples=int(rng.integers(1, 9)),
    )


def outcome(device_id, round_index=1, seed=0, finished_at=0.0):
    """One device's upload reaching the cloud at ``finished_at``: a block of one row."""
    update = make_update(device_id, round_index, seed)
    return MessageBlock(
        task_id="t",
        round_index=round_index,
        device_ids=[device_id],
        grade="High",
        size_bytes=64,
        n_samples=[update.n_samples],
        finished_at=np.array([finished_at]),
        update_weights=update.weights[None],
        update_biases=np.array([update.bias]),
    )


class TestIngestionGate:
    def test_duplicate_delivery_folds_exactly_once(self):
        sim, service, sink, _ = make_numeric_sink(dedup=True)
        first = outcome("d0", seed=1)
        sink.accept_block(first)
        sink.accept_block(first)  # retried/duplicated delivery of the same upload
        sink.accept_block(outcome("d1", seed=2))
        assert sink.delivered == 2
        assert sink.duplicate_drops == 1
        assert service.pending_updates == 2

    def test_dedup_is_per_round(self):
        sim, service, sink, _ = make_numeric_sink(dedup=True)
        sink.accept_block(outcome("d0", round_index=1, seed=1))
        sink.accept_block(outcome("d0", round_index=2, seed=1))
        assert sink.delivered == 2
        assert sink.duplicate_drops == 0

    def test_deadline_closed_round_equals_fold_over_on_time_updates(self):
        sim, service, sink, model = make_numeric_sink(dedup=True)
        sink.begin_round(1, deadline=10.0)
        on_time = [outcome(f"d{i}", seed=i, finished_at=5.0) for i in range(3)]
        late = [outcome(f"late{i}", seed=10 + i, finished_at=12.0) for i in range(2)]
        for o in on_time:
            sim.schedule(5.0, sink.accept_block, o)
        for o in late:
            sim.schedule(12.0, sink.accept_block, o)
        sim.run()
        assert sink.delivered == 3
        assert sink.late_drops == 2
        record = service.aggregate_now()
        assert record.n_updates == 3
        weights, bias = fedavg([make_update(f"d{i}", seed=i) for i in range(3)])
        np.testing.assert_array_equal(model.weights, weights)
        assert model.bias == bias

    def test_fully_lost_round_degrades_gracefully(self):
        sim, service, sink, _ = make_numeric_sink(dedup=True)
        sink.begin_round(1, deadline=10.0)
        sim.schedule(12.0, sink.accept_block, outcome("d0", finished_at=12.0))
        sim.run()
        assert sink.late_drops == 1
        # Nothing reached the buffer, so the runner's round-close fold
        # (``if service.pending_updates > 0``) has nothing to do.
        assert service.pending_updates == 0
        assert service.rounds_completed == 0

    def test_ungated_sink_counters_stay_zero(self):
        sim, service, sink, _ = make_numeric_sink(dedup=False)
        sink.accept_block(outcome("d0"))
        assert (sink.delivered, sink.duplicate_drops, sink.late_drops) == (0, 0, 0)


# ----------------------------------------------------------------------
# the scenario-level differential suite
# ----------------------------------------------------------------------
class TestTransportDifferential:
    def test_lossless_channel_is_byte_identical_to_no_channel(self):
        plain = run_scenario(transport_scenario())
        lossless = run_scenario(transport_scenario(transport=TransportSpec()))
        far_deadline = run_scenario(
            transport_scenario(transport=TransportSpec(deadline_s=1e6))
        )
        assert lossless.to_json() == plain.to_json()
        assert far_deadline.to_json() == plain.to_json()

    def test_lossy_run_identical_across_repeats(self):
        first = run_scenario(transport_scenario(transport=LOSSY, faults=LOSSY_FAULTS))
        repeat = run_scenario(transport_scenario(transport=LOSSY, faults=LOSSY_FAULTS))
        assert first.to_json() == repeat.to_json()
        # The channel visibly perturbed the run.
        kpis = first.tenants["up"]
        assert kpis.transport_retries > 0
        assert kpis.updates_aggregated < kpis.updates_expected

    def test_transport_losses_balance_expected_updates(self):
        report = run_scenario(
            transport_scenario(transport=LOSSY, faults=LOSSY_FAULTS)
        )
        kpis = report.tenants["up"]
        accounted = (
            kpis.updates_aggregated + kpis.transport_late_drops + kpis.transport_abandoned
        )
        assert accounted == kpis.updates_expected

    def test_duplication_with_dedup_is_fold_equivalent_to_exactly_once(self):
        # Scoped to the direct tenant: a duplicate through DeviceFlow
        # legitimately perturbs the flow's per-message sampling, so only
        # direct ingestion promises exactly-once equivalence.
        plain = run_scenario(transport_scenario()).to_dict()
        dup_only = run_scenario(
            transport_scenario(
                faults=[
                    FaultSpec(
                        kind="message_duplication",
                        at=0.0,
                        until=600.0,
                        factor=0.5,
                        tenant="up",
                    )
                ]
            )
        )
        kpis = dup_only.tenants["up"]
        assert kpis.transport_duplicates > 0
        data = dup_only.to_dict()
        # Zero the duplication artifacts (its KPI counter and the fault
        # event): everything else — the fold, the accuracies, the
        # timings — must match exactly-once delivery.
        for tenant in data["tenants"].values():
            tenant["transport_duplicates"] = 0
        data["fault_events"].pop("fault_message_duplication")
        assert data == plain

    def test_transport_faults_fire_as_events(self):
        report = run_scenario(
            transport_scenario(transport=LOSSY, faults=LOSSY_FAULTS)
        )
        assert report.fault_events.get("fault_message_loss") == 1
        assert report.fault_events.get("fault_service_outage") == 1


# ----------------------------------------------------------------------
# MessageBlock delivery under duplication + dedup
# ----------------------------------------------------------------------
class TestMessageBlockDedup:
    def test_block_messages_match_scalar_stream_under_duplication(self):
        block = MessageBlock(
            task_id="t",
            round_index=1,
            device_ids=[f"d{i}" for i in range(5)],
            size_bytes=32,
            n_samples=np.arange(1, 6),
        )
        singles = [block[row : row + 1] for row in range(len(block))]
        assert [m.device_ids for m in singles] == [[d] for d in block.device_ids]
        assert [m.n_samples.tolist() for m in singles] == [[1], [2], [3], [4], [5]]

        def run(stream):
            sim = Simulator()
            service = AggregationService(sim, AggregationTrigger())
            sink = CloudIngestSink(sim, service, dedup=True)
            for segment in stream:
                sink.flow_receive(segment)
            return service, sink

        # Every message delivered twice (duplication) vs exactly once: the
        # dedup table makes the buffered work identical — whether the copies
        # arrive as one-row segments or inside one coalesced chunk.
        twice = [m for m in singles for _ in range(2)]
        once, once_sink = run([block])
        assert once_sink.duplicate_drops == 0
        for stream in (twice, MessageBlock.coalesce(twice)):
            duplicated, dup_sink = run(stream)
            assert dup_sink.duplicate_drops == len(block)
            assert dup_sink.delivered == once_sink.delivered == len(block)
            assert duplicated.pending_updates == once.pending_updates == len(block)
            assert duplicated.pending_samples == once.pending_samples
            assert duplicated.messages_received == once.messages_received


# ----------------------------------------------------------------------
# spec validation messages + serialization properties
# ----------------------------------------------------------------------
class TestFaultSpecMessages:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "phone_crash", "at": -1.0}, "at must be a finite number >= 0, got -1.0"),
            (
                {"kind": "phone_crash", "at": 5.0, "until": 3.0},
                "fault recovery must come after the fault: until=3.0 <= at=5.0",
            ),
            ({"kind": "phone_crash", "at": 0.0, "count": 0}, "phone_crash needs count >= 1, got 0"),
            (
                {"kind": "network_degradation", "at": 0.0},
                "network_degradation needs an end time, got until=None",
            ),
            (
                {"kind": "network_degradation", "at": 0.0, "until": 10.0, "factor": 1.5},
                "degradation factor must be in (0, 1], got 1.5",
            ),
            (
                {"kind": "straggler", "at": 0.0},
                "straggler injection needs a window end, got until=None",
            ),
            (
                {"kind": "straggler", "at": 0.0, "until": 10.0, "factor": 0.5},
                "straggler slowdown factor must be > 1, got 0.5",
            ),
            (
                {"kind": "message_loss", "at": 0.0},
                "message_loss needs an end time, got until=None",
            ),
            (
                {"kind": "message_loss", "at": 0.0, "until": 10.0, "factor": 1.5},
                "message_loss probability (factor) must be in (0, 1], got 1.5",
            ),
            (
                {"kind": "message_duplication", "at": 0.0, "until": 10.0, "factor": 0.0},
                "message_duplication probability (factor) must be in (0, 1], got 0.0",
            ),
        ],
    )
    def test_errors_carry_the_received_value(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FaultSpec(**kwargs)

    def test_transport_kinds_are_registered(self):
        assert set(FaultSpec.TRANSPORT_KINDS) <= set(FaultSpec.KINDS)
        # service_outage needs only a window, no factor.
        FaultSpec(kind="service_outage", at=0.0, until=10.0)


def fault_strategy():
    window = st.tuples(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.01, max_value=1e4),
    ).map(lambda t: (t[0], t[0] + t[1]))
    factor01 = st.floats(min_value=0.01, max_value=1.0)
    return st.one_of(
        window.flatmap(
            lambda w: st.builds(
                FaultSpec,
                kind=st.just("phone_crash"),
                at=st.just(w[0]),
                until=st.one_of(st.none(), st.just(w[1])),
                grade=st.sampled_from(["", "High", "Low"]),
                count=st.integers(min_value=1, max_value=10),
            )
        ),
        window.flatmap(
            lambda w: st.builds(
                FaultSpec,
                kind=st.just("network_degradation"),
                at=st.just(w[0]),
                until=st.just(w[1]),
                factor=factor01,
            )
        ),
        window.flatmap(
            lambda w: st.builds(
                FaultSpec,
                kind=st.just("straggler"),
                at=st.just(w[0]),
                until=st.just(w[1]),
                factor=st.floats(min_value=1.01, max_value=10.0),
                tenant=st.sampled_from(["", "up"]),
            )
        ),
        window.flatmap(
            lambda w: st.builds(
                FaultSpec,
                kind=st.sampled_from(["message_loss", "message_duplication"]),
                at=st.just(w[0]),
                until=st.just(w[1]),
                factor=factor01,
                tenant=st.sampled_from(["", "up"]),
            )
        ),
        window.flatmap(
            lambda w: st.builds(
                FaultSpec,
                kind=st.just("service_outage"),
                at=st.just(w[0]),
                until=st.just(w[1]),
                tenant=st.sampled_from(["", "up"]),
            )
        ),
    )


class TestSpecRoundTripProperties:
    @given(fault=fault_strategy())
    @settings(max_examples=100, deadline=None)
    def test_fault_spec_round_trips_through_json(self, fault):
        data = json.loads(json.dumps(asdict(fault)))
        assert asdict(FaultSpec(**data)) == asdict(fault)

    @given(
        faults=st.lists(fault_strategy(), max_size=4),
        seed=st.integers(min_value=0, max_value=2**31),
        deadline=st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e4)),
        loss=st.floats(min_value=0.0, max_value=0.99),
        attempts=st.integers(min_value=1, max_value=8),
        stray=st.sampled_from(["batch", "cloud_blocks", "typo_field"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_scenario_spec_round_trips_through_json(
        self, faults, seed, deadline, loss, attempts, stray
    ):
        spec = transport_scenario(
            transport=TransportSpec(
                loss_prob=loss, max_attempts=attempts, deadline_s=deadline
            ),
            faults=faults,
            seed=seed,
        )
        data = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ScenarioSpec.from_dict(data)
        assert rebuilt.to_dict() == spec.to_dict()
        # A key no spec class declares (a typo, or ``batch:`` from an older
        # dump) fails by its path and lists what is accepted, at every level.
        places = [("", data, "ScenarioSpec"), ("tenants[1].", data["tenants"][1], "TenantSpec")]
        if faults:
            places.append((f"faults[{len(faults) - 1}].", data["faults"][-1], "FaultSpec"))
        for prefix, target, owner in places:
            target[stray] = True
            message = f"unknown scenario field '{prefix}{stray}'; {owner} accepts: "
            with pytest.raises(ValueError, match=re.escape(message)):
                ScenarioSpec.from_dict(data)
            del target[stray]


    def test_tenant_records_per_device_error_is_path_qualified(self):
        data = transport_scenario(transport=TransportSpec()).to_dict()
        for numeric, records, floor in ((False, 0, 1), (True, 1, 2)):
            data["tenants"][0].update(numeric=numeric, records_per_device=records)
            message = f"tenants[0].records_per_device must be >= {floor}"
            with pytest.raises(ValueError, match=re.escape(message)):
                ScenarioSpec.from_dict(data)
        with pytest.raises(ValueError, match=r"^records_per_device must be >= 1"):
            TenantSpec(name="direct", records_per_device=0)


# ----------------------------------------------------------------------
# SLA metrics + live alarms over transport signals
# ----------------------------------------------------------------------
class TestTransportObservability:
    def test_transport_metrics_are_known_slas(self):
        names = known_metrics()
        assert "retry_rate" in names
        assert "round_completeness" in names

    def test_metric_values_derive_from_transport_kpis(self):
        report = run_scenario(
            transport_scenario(transport=LOSSY, faults=LOSSY_FAULTS)
        )
        kpis = report.tenants["up"]
        assert metric_value(kpis, "retry_rate") == pytest.approx(
            kpis.transport_retries / kpis.updates_expected
        )
        assert metric_value(kpis, "round_completeness") == pytest.approx(
            kpis.updates_aggregated / kpis.updates_expected
        )

    def test_summary_lines_mention_transport(self):
        report = run_scenario(
            transport_scenario(transport=LOSSY, faults=LOSSY_FAULTS)
        )
        assert any("transport:" in line for line in report.summary_lines())

    def test_lossy_uplink_scenario_runs_with_live_retry_alarm(self):
        spec = build_scenario("lossy_uplink", scale=120, seed=0)
        report = run_scenario(spec)
        assert report.sla_ok
        kpis = report.tenants["uplink"]
        assert kpis.transport_retries > 0
        assert report.alarm_events.get("alarm_raised", 0) >= 1


# ----------------------------------------------------------------------
# CLI: scenario files
# ----------------------------------------------------------------------
class TestScenarioFileCLI:
    def spec_json(self):
        return json.dumps(transport_scenario(transport=TransportSpec(loss_prob=0.1)).to_dict())

    def test_run_json_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(self.spec_json(), encoding="utf-8")
        assert scenarios_main(["run", str(path)]) == 0
        assert "transport-diff" in capsys.readouterr().out

    def test_run_yaml_file(self, tmp_path, capsys):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(
            yaml.safe_dump(json.loads(self.spec_json())), encoding="utf-8"
        )
        assert scenarios_main(["run", str(path)]) == 0
        assert "transport-diff" in capsys.readouterr().out

    def test_show_round_trips_into_run(self, tmp_path, capsys):
        assert scenarios_main(["show", "lossy_uplink", "--scale", "120"]) == 0
        path = tmp_path / "lossy.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert scenarios_main(["run", str(path), "--sla"]) == 0

    def test_seed_override_applies_to_file_specs(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(self.spec_json(), encoding="utf-8")
        assert scenarios_main(["run", str(path), "--seed", "7"]) == 0
        assert "seed 7" in capsys.readouterr().out

    def test_unknown_name_and_missing_file_fail(self):
        with pytest.raises(SystemExit):
            scenarios_main(["run", "no_such_scenario"])
        with pytest.raises(SystemExit):
            scenarios_main(["run", "missing.yaml"])

    def test_scale_rejected_for_file_specs(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(self.spec_json(), encoding="utf-8")
        with pytest.raises(SystemExit):
            scenarios_main(["run", str(path), "--scale", "500"])

    def test_non_mapping_file_fails(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(SystemExit):
            scenarios_main(["run", str(path)])
