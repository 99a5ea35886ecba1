"""Differential suite: the wave-scheduled phone tier equals the per-device oracle.

PhoneMgr runs a round as per-phone cumsum wave schedules put on the kernel,
one shared sampler ticker and direct sensor sampling;
``reference.tier_reference`` keeps the loops that replaced (one generator +
three heap events per emulated device, one 1 Hz sampler process per
benchmarking phone, ADB string round-trips per sample).  Both must produce
*bit-identical* simulations: outcome streams (ids, payloads, model updates,
emission order), completion times, benchmark sample series, Table-I stage
summaries, per-phone physical state (battery accounts, WLAN counters,
session counts) and final random-stream states — across multiple rounds,
numeric and time-only plans, mixed grades and MSP control latency.
"""

import numpy as np
import pytest
from helpers import CallbackSink, WholePlanSink, stream_states
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference.tier_reference import ReferencePhoneMgr, all_outcomes, run_per_event

from repro.cluster import (
    DeviceColumns,
    GradeExecutionPlan,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    ResourceBundle,
)
from repro.data import SyntheticAvazu
from repro.ml import standard_fl_flow
from repro.phones import (
    MobileServicePlatform,
    PhoneAssignment,
    PhoneMgr,
    PhysicalCostModel,
    SimulatedAdb,
    VirtualPhone,
    build_fleet,
)
from repro.phones.specs import DEFAULT_MSP_FLEET
from repro.simkernel import RandomStreams, Simulator, Timeout

SEED = 7
FEATURE_DIM = 32
MODEL_BYTES = FEATURE_DIM * 8 + 8 + 64
#: Values of the ``reference`` flag: the per-device oracle, or ``repro.phones.PhoneMgr``.
ORACLE, PRODUCTION = True, False


def build_rig(reference: bool, n_phones: int, seed: int = SEED, poll: float = 1.0,
              window: float = 15.0, msp: bool = False):
    sim = Simulator()
    adb = SimulatedAdb()
    streams = RandomStreams(seed)
    phones = []
    if msp:
        platform = MobileServicePlatform(sim, adb, DEFAULT_MSP_FLEET[:n_phones], streams=streams)
        phones = platform.provision()
    else:
        for i, spec in enumerate(build_fleet(n_phones, n_phones, "SIM")):
            phone = VirtualPhone(sim, f"ph-{i:03d}", spec, streams=streams)
            adb.register(phone)
            phones.append(phone)
    cost = PhysicalCostModel(
        stage_window=window, msp_control_latency=0.8 if msp else 0.0
    )
    mgr = (ReferencePhoneMgr if reference else PhoneMgr)(
        sim, adb, phones, cost_model=cost, streams=streams,
        poll_interval=poll, busy_registry=set(),
    )
    return sim, mgr, phones, streams


def time_only_plan(grade: str, n_devices: int, n_phones: int, n_bench: int) -> PhoneAssignment:
    return PhoneAssignment(
        grade=grade,
        # Varying n_samples -> varying push durations, so waves de-sync and
        # the cumsum chains are exercised per phone, not per plan.
        devices=DeviceColumns(
            [f"{grade}-d{i}" for i in range(n_devices)], [10 + (i % 7) for i in range(n_devices)]
        ),
        benchmarking=DeviceColumns([f"{grade}-b{i}" for i in range(n_bench)], [10] * n_bench),
        n_phones=n_phones,
        flow=standard_fl_flow(),
        numeric=False,
    )


def numeric_plan(grade: str, n_devices: int, n_phones: int, n_bench: int, seed: int = 3) -> PhoneAssignment:
    data = SyntheticAvazu(
        n_devices=n_devices + n_bench, records_per_device=9, feature_dim=FEATURE_DIM, seed=seed
    ).generate()
    shards = [data.shard(d) for d in data.device_ids()]
    return PhoneAssignment(
        grade=grade,
        devices=DeviceColumns.of_shards(shards[:n_devices]),
        benchmarking=DeviceColumns.of_shards(shards[n_devices:]),
        n_phones=n_phones,
        flow=standard_fl_flow(epochs=2),
        feature_dim=FEATURE_DIM,
        numeric=True,
    )


def run_session(reference: bool, plans, n_phones: int, rounds: int = 2, numeric: bool = False,
                poll: float = 1.0, window: float = 15.0, msp: bool = False, seed: int = SEED,
                sink_class=CallbackSink):
    """Drive prepare -> rounds -> teardown; return everything observable.

    ``reference`` runs the per-device oracle, stepped one event at a time.
    ``sink_class=None`` runs with ``sink=None``: nothing is delivered, so
    no outcome is seen.  ``rounds`` holds each round's ``(started_at,
    finished_at, aborted)``.
    """
    sim, mgr, phones, streams = build_rig(reference, n_phones, seed=seed, poll=poll, window=window, msp=msp)
    outcomes, spans = [], []
    weights = np.zeros(FEATURE_DIM) if numeric else None
    model_bytes = MODEL_BYTES if numeric else 33000

    def drive():
        yield sim.process(mgr.prepare(plans, task_id="task"))
        for round_index in range(1, rounds + 1):
            sink = sink_class(outcomes.append) if sink_class is not None else None
            started = sim.now
            aborted = yield sim.process(mgr.run_round(round_index, weights, 0.0, model_bytes, sink))
            spans.append((started, sim.now, aborted))
        yield sim.process(mgr.teardown())

    sim.process(drive())
    if reference:
        run_per_event(sim)
    else:
        sim.run()
    return {
        "mgr": mgr,
        "phones": phones,
        "outcomes": outcomes,
        "end": sim.now,
        "rounds": spans,
        "streams": stream_states(streams),
    }


def assert_equivalent(legacy: dict, batched: dict, delivered: bool = True) -> None:
    """Full bit-level comparison of two sessions (of all but the outcomes when ``batched`` delivered none)."""
    assert legacy["end"] == batched["end"]
    # Outcome stream: same devices, same order, same times, same payloads.
    if not delivered:
        assert batched["outcomes"] == []
    else:
        assert len(legacy["outcomes"]) == len(batched["outcomes"])
    for a, b in zip(legacy["outcomes"], batched["outcomes"]):
        assert (a.device_id, a.grade, a.round_index, a.n_samples, a.payload_bytes) == (
            b.device_id, b.grade, b.round_index, b.n_samples, b.payload_bytes
        )
        assert a.finished_at == b.finished_at
        if a.update is None:
            assert b.update is None
        else:
            assert a.update.weights.tobytes() == b.update.weights.tobytes()
            assert a.update.bias == b.update.bias
            assert a.update.n_samples == b.update.n_samples
    # Round spans and their voided flags.
    assert legacy["rounds"] == batched["rounds"]
    # Each benchmarking phone's round record: samples (timestamps AND contents), stages, Table-I rows.
    records_a, records_b = legacy["mgr"].benchmark_records, batched["mgr"].benchmark_records
    assert len(records_a) == len(records_b)
    for rec_a, rec_b in zip(records_a, records_b):
        assert (rec_a.serial, rec_a.device_id, rec_a.round_index) == (rec_b.serial, rec_b.device_id, rec_b.round_index)
        assert rec_a.boundaries == rec_b.boundaries
        assert rec_a.samples == rec_b.samples
        assert rec_a.stage_summaries() == rec_b.stage_summaries()
    # Per-phone physical state after teardown.
    for pa, pb in zip(legacy["phones"], batched["phones"]):
        assert pa.serial == pb.serial
        assert pa.sessions_completed == pb.sessions_completed
        assert pa.battery.consumed_mah == pb.battery.consumed_mah
        assert pa.stage_energy_mah == pb.stage_energy_mah
        assert pa.stage_durations == pb.stage_durations
        assert (pa._net_rx_base, pa._net_tx_base) == (pb._net_rx_base, pb._net_tx_base)
    assert legacy["streams"] == batched["streams"]


class TestTimeOnlyEquivalence:
    def test_multi_wave_multi_round(self):
        plans = [time_only_plan("High", 13, 4, 2)]
        assert_equivalent(
            run_session(ORACLE, plans, 8),
            run_session(PRODUCTION, [time_only_plan("High", 13, 4, 2)], 8),
        )

    def test_mixed_grades(self):
        def plans():
            return [time_only_plan("High", 9, 3, 1), time_only_plan("Low", 7, 2, 1)]

        assert_equivalent(
            run_session(ORACLE, plans(), 6),
            run_session(PRODUCTION, plans(), 6),
        )

    def test_msp_control_latency(self):
        def plans():
            return [time_only_plan("High", 6, 3, 1)]

        assert_equivalent(
            run_session(ORACLE, plans(), 8, msp=True),
            run_session(PRODUCTION, plans(), 8, msp=True),
        )

    def test_more_phones_than_devices(self):
        # Some phones get empty queues; the wave schedule must skip them
        # exactly as the per-phone loops do.
        def plans():
            return [time_only_plan("High", 3, 5, 0)]

        assert_equivalent(
            run_session(ORACLE, plans(), 6),
            run_session(PRODUCTION, plans(), 6),
        )

    @pytest.mark.parametrize("poll", [0.37, 5.0, 15.0, 31.0])
    def test_sampler_tie_breaking(self, poll):
        # Poll intervals that collide with (or exceed) the stage windows:
        # the shared ticker must reproduce the per-phone loops' boundary
        # tie ordering and final-tick semantics.
        def plans():
            return [time_only_plan("High", 4, 2, 2)]

        assert_equivalent(
            run_session(ORACLE, plans(), 6, poll=poll),
            run_session(PRODUCTION, plans(), 6, poll=poll),
        )


class TestNumericEquivalence:
    def test_numeric_updates_bitwise(self):
        assert_equivalent(
            run_session(ORACLE, [numeric_plan("High", 10, 3, 2)], 8, numeric=True),
            run_session(PRODUCTION, [numeric_plan("High", 10, 3, 2)], 8, numeric=True),
        )

    def test_numeric_stream_continuity_across_rounds(self):
        # phone-exec.* streams are cached per device: round 2 must continue
        # the same generators in both modes, so a 3-round run diverges if
        # either path consumes draws differently.
        assert_equivalent(
            run_session(ORACLE, [numeric_plan("Low", 6, 2, 1)], 6, numeric=True, rounds=3),
            run_session(PRODUCTION, [numeric_plan("Low", 6, 2, 1)], 6, numeric=True, rounds=3),
        )


class TestOneEngineAnyShape:
    """The shared round engine against the oracle, whatever the plan's shape.

    More phones than devices (idle slots), ragged queues, numeric or not,
    and all three deliveries: a ``prefers_waves`` sink, a whole-plan sink,
    ``sink=None``.  Only a wave sink sees completions in the oracle's
    (chronological) order, so the other two compare the same outcomes
    sorted by round, time and device.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        n_devices=st.integers(min_value=1, max_value=11),
        n_phones=st.integers(min_value=1, max_value=6),
        n_bench=st.integers(min_value=0, max_value=1),
        numeric=st.booleans(),
        delivery=st.sampled_from([CallbackSink, WholePlanSink, None]),
    )
    # Two phones finish round 2's second wave at one instant, the later phone's chain scheduled first.
    @example(n_devices=6, n_phones=3, n_bench=1, numeric=True, delivery=CallbackSink)
    def test_phone_rounds_equal_the_oracle(self, n_devices, n_phones, n_bench, numeric, delivery):
        def plans():
            make = numeric_plan if numeric else time_only_plan
            return [make("High", n_devices, n_phones, n_bench)]

        oracle = run_session(ORACLE, plans(), 8, numeric=numeric)
        engine = run_session(PRODUCTION, plans(), 8, numeric=numeric, sink_class=delivery)
        if delivery is not CallbackSink:
            for session in (oracle, engine):
                session["outcomes"].sort(key=lambda o: (o.round_index, o.finished_at, o.device_id))
        assert_equivalent(oracle, engine, delivered=delivery is not None)
        assert not any(aborted for _, _, aborted in engine["rounds"])


class TestAbortMidRound:
    def test_abort_releases_in_flight_batched_round(self):
        # A sibling failure (e.g. the logical tier crashing) triggers
        # PhoneMgr.abort() while a wave-scheduled round is still pending
        # in the pool.  The voided callbacks must not leak the round
        # process: its barrier fires at abort time and the simulation
        # drains without touching the released phones further.
        sim, mgr, phones, _ = build_rig(PRODUCTION, 6)
        plan = time_only_plan("High", 12, 3, 0)
        sessions_at_abort = {}

        def drive():
            yield sim.process(mgr.prepare([plan], task_id="t"))
            round_proc = sim.process(mgr.run_round(1, None, 0.0, 33000, CallbackSink(lambda o: None)))
            yield Timeout(20.0)  # mid-round: first wave done, rest pending
            mgr.abort()
            sessions_at_abort.update(
                {p.serial: p.sessions_completed for p in phones}
            )
            return (yield round_proc)  # must resolve instead of leaking forever

        proc = sim.process(drive())
        sim.run()
        assert proc.done and proc.error is None
        assert sim.pending_events == 0
        assert proc.result is True  # the round resolved as voided
        assert mgr.plans == []
        assert len(mgr.available_phones("High")) == 6
        # Epoch-voided callbacks did not replay sessions after the abort.
        for phone in phones:
            assert phone.sessions_completed == sessions_at_abort[phone.serial]


    def test_both_tiers_unwind_as_aborted(self):
        # One engine, one teardown contract: a round in flight on either
        # tier resolves as ``aborted`` when its tier is torn down, and the
        # voided scheduled callbacks deliver nothing afterwards.
        sim, mgr, phones, _ = build_rig(PRODUCTION, 6)
        logical = LogicalSimulation(
            sim, K8sCluster([NodeSpec(cpus=10, memory_gb=20)]), LogicalCostModel(), RandomStreams(0)
        )
        logical_plan = GradeExecutionPlan(
            grade="High",
            devices=DeviceColumns([f"l{i}" for i in range(12)], [10] * 12),
            n_actors=3,
            bundle=ResourceBundle(cpus=1, memory_gb=1),
            flow=standard_fl_flow(),
            numeric=False,
        )
        delivered = []
        after_teardown = []
        voided = []

        def drive():
            yield sim.process(logical.prepare([logical_plan], task_id="t"))
            yield sim.process(mgr.prepare([time_only_plan("High", 12, 3, 0)], task_id="t"))
            sink = CallbackSink(delivered.append)
            rounds = [sim.process(tier.run_round(1, None, 0.0, 33000, sink)) for tier in (logical, mgr)]
            yield Timeout(20.0)  # mid-round on both tiers
            logical.teardown()
            mgr.abort()
            after_teardown.append(len(delivered))
            for round_proc in rounds:
                voided.append((yield round_proc))  # must resolve instead of leaking forever

        proc = sim.process(drive())
        sim.run()
        assert proc.done and proc.error is None
        assert sim.pending_events == 0
        assert 0 < after_teardown[0] < 24
        assert {o.device_id[0] for o in delivered} == {"l", "H"}  # both tiers were mid-round
        assert len(delivered) == after_teardown[0]  # nothing fired after teardown
        assert voided == [True, True]


class TestColumnarRounds:
    def test_columnar_blocks_match_eager_outcomes(self):
        # A whole-plan sink is handed one columnar block per plan;
        # materializing it must reproduce the wave-by-wave outcome stream.
        sim, mgr, phones, _ = build_rig(PRODUCTION, 6)
        plan = time_only_plan("High", 11, 3, 0)
        whole = WholePlanSink()

        def drive():
            yield sim.process(mgr.prepare([plan], task_id="t"))
            yield sim.process(mgr.run_round(1, None, 0.0, 33000, whole))

        sim.process(drive())
        sim.run()
        assert len(whole.blocks) == 1
        materialized = all_outcomes(whole.blocks)

        eager = run_session(PRODUCTION, [time_only_plan("High", 11, 3, 0)], 6, rounds=1)
        # Columnar blocks store assignment order; eager emission is
        # chronological — same multiset, per-device fields bit-identical.
        assert sorted(o.device_id for o in materialized) == sorted(
            o.device_id for o in eager["outcomes"]
        )
        lookup = {o.device_id: o for o in eager["outcomes"]}
        for outcome in materialized:
            reference = lookup[outcome.device_id]
            assert outcome.finished_at == reference.finished_at
            assert outcome.payload_bytes == reference.payload_bytes
        assert float(whole.blocks[0].finished_at.max()) == eager["rounds"][0][1]

    def test_columnar_numeric_fedavg_inputs(self):
        sim, mgr, phones, _ = build_rig(PRODUCTION, 6)
        plan = numeric_plan("High", 8, 3, 0)
        whole = WholePlanSink()

        def drive():
            yield sim.process(mgr.prepare([plan], task_id="t"))
            yield sim.process(mgr.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, whole))

        sim.process(drive())
        sim.run()
        (block,) = whole.blocks
        weights, biases, n_samples = block.update_weights, block.update_biases, block.n_samples
        assert weights.shape == (8, FEATURE_DIM)

        eager = run_session(PRODUCTION, [numeric_plan("High", 8, 3, 0)], 6, numeric=True, rounds=1)
        by_device = {o.device_id: o for o in eager["outcomes"] if o.update is not None}
        # Columnar arrays are in assignment order; compare per device.
        for position, device_id in enumerate(block.device_ids):
            reference = by_device[device_id]
            assert weights[position].tobytes() == reference.update.weights.tobytes()
            assert biases[position] == reference.update.bias
            assert n_samples[position] == reference.n_samples
