"""Property suites for the shared benchmark-sampler ticker and the phone wave views.

The shared ticker stands in for N per-phone polling processes with one
recurring kernel tick; Hypothesis drives full benchmark sessions over
arbitrary poll intervals and stage windows (including intervals that
collide with or exceed the windows, where tie-breaking against stage
boundaries is subtle) and asserts each phone's round record — sample
timestamps, contents and stage boundaries — and the session end time are
identical to the per-phone ADB-text loops of ``reference.tier_reference``.
The strided wave views the computing phones deliver are checked for
exactly-once, in-order coverage of the round-robin queues.
"""

from helpers import CallbackSink
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.tier_reference import ReferencePhoneMgr, run_per_event

from repro.cluster import DeviceColumns
from repro.ml import standard_fl_flow
from repro.phones import (
    PhoneAssignment,
    PhoneMgr,
    PhysicalCostModel,
    SimulatedAdb,
    VirtualPhone,
    build_fleet,
)
from repro.simkernel import RandomStreams, Simulator


def run_benchmark_session(reference: bool, poll: float, window: float, n_bench: int,
                          rounds: int, seed: int):
    sim = Simulator()
    adb = SimulatedAdb()
    streams = RandomStreams(seed)
    phones = []
    for i, spec in enumerate(build_fleet(n_bench, 0, "SIM")):
        phone = VirtualPhone(sim, f"ph-{i:02d}", spec, streams=streams)
        adb.register(phone)
        phones.append(phone)
    mgr = (ReferencePhoneMgr if reference else PhoneMgr)(
        sim, adb, phones,
        cost_model=PhysicalCostModel(stage_window=window),
        streams=streams, poll_interval=poll, busy_registry=set(),
    )
    plan = PhoneAssignment(
        grade="High",
        devices=DeviceColumns([], []),
        benchmarking=DeviceColumns([f"b{i}" for i in range(n_bench)], [10] * n_bench),
        n_phones=0,
        flow=standard_fl_flow(),
        numeric=False,
    )

    def drive():
        yield sim.process(mgr.prepare([plan], task_id="t"))
        for round_index in range(1, rounds + 1):
            yield sim.process(mgr.run_round(round_index, None, 0.0, 33000, CallbackSink(lambda o: None)))

    sim.process(drive())
    if reference:
        run_per_event(sim)
    else:
        sim.run()
    return mgr.benchmark_records, sim.now


@given(
    poll=st.floats(min_value=0.05, max_value=40.0, allow_nan=False, allow_infinity=False),
    window=st.floats(min_value=0.5, max_value=20.0, allow_nan=False, allow_infinity=False),
    n_bench=st.integers(min_value=1, max_value=3),
    rounds=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_shared_ticker_matches_per_phone_loops(poll, window, n_bench, rounds, seed):
    legacy_records, legacy_end = run_benchmark_session(True, poll, window, n_bench, rounds, seed)
    ticker_records, ticker_end = run_benchmark_session(False, poll, window, n_bench, rounds, seed)
    assert ticker_end == legacy_end
    assert len(ticker_records) == len(legacy_records)
    for rec_a, rec_b in zip(legacy_records, ticker_records):
        assert (rec_a.serial, rec_a.device_id, rec_a.round_index) == (rec_b.serial, rec_b.device_id, rec_b.round_index)
        assert rec_a.boundaries == rec_b.boundaries
        # Dataclass equality covers timestamp, serial and every metric.
        assert rec_a.samples == rec_b.samples


@given(
    n_assignments=st.integers(min_value=0, max_value=80),
    n_phones=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_partition_round_robin_exactly_once(n_assignments, n_phones):
    """The wave views cover the round-robin queues exactly once, in queue order.

    Phone ``p`` emulates plan rows ``p::n_phones``; its completion waves are
    strided views of the plan's block, and together they must hand a
    wave-preferring sink every device once, each queue in row order.
    """
    sim = Simulator()
    adb = SimulatedAdb()
    streams = RandomStreams(0)
    phones = []
    for i, spec in enumerate(build_fleet(n_phones, 0, "SIM")):
        phone = VirtualPhone(sim, f"ph-{i:02d}", spec, streams=streams)
        adb.register(phone)
        phones.append(phone)
    mgr = PhoneMgr(sim, adb, phones, PhysicalCostModel(), streams, busy_registry=set())
    plan = PhoneAssignment(
        grade="High",
        devices=DeviceColumns(
            [f"d{i}" for i in range(n_assignments)], [1 + i % 5 for i in range(n_assignments)]
        ),
        benchmarking=DeviceColumns([], []),
        n_phones=n_phones,
        flow=standard_fl_flow(),
        numeric=False,
    )
    seen = []
    sink = CallbackSink(seen.append)

    def drive():
        yield sim.process(mgr.prepare([plan], task_id="t"))
        yield sim.process(mgr.run_round(1, None, 0.0, 33000, sink))

    sim.process(drive())
    sim.run()
    rows = [int(outcome.device_id[1:]) for outcome in seen]
    assert sorted(rows) == list(range(n_assignments))
    for p in range(n_phones):
        queue = [row for row in rows if row % n_phones == p]
        assert queue == list(range(p, n_assignments, n_phones))
    assert [o.finished_at for o in seen] == sorted(o.finished_at for o in seen)
    assert sum(len(block) for block in sink.blocks) == n_assignments
