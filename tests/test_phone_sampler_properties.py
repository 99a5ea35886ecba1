"""Property suites for the benchmark sampler and the phone wave views.

A benchmarking protocol computes its record's samples in one array pass
when it closes (or an abort cuts it short); ``reference.sampler_reference``
keeps the recurring kernel tick that sampled every active phone one read
at a time, and ``reference.tier_reference`` the polling process per phone
that issued the ADB text reads.  Hypothesis drives benchmark sessions
through all three — over poll intervals, stage windows, training lengths
and MSP control latency, with phones that register at different offsets
of a running tick lattice (on a tick, between ticks, and while a lattice
runs down after its last protocol closed), ticks that land exactly on a
stage boundary or on the phone's training finish, and aborts in the middle
of a stage — and asserts the records (timestamps, every metric, stage
boundaries), the protocol end times and the final noise-stream states are
identical, bit for bit.  The strided wave views the computing phones
deliver are checked for exactly-once, in-order coverage of the round-robin
queues.
"""

import struct
import sys
from importlib import util
from itertools import accumulate
from pathlib import Path

import pytest
from helpers import CallbackSink, stream_states
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference.sampler_reference import TickerPhoneMgr, schedule_recurring
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
from repro.scenarios.engine import ScenarioRunner
from repro.simkernel import RandomStreams, Simulator, Timeout

MODEL_BYTES = 33000


def rig(manager, n_bench: int, poll: float, window: float, seed: int, latency: float = 0.0, beta: float = 16.2):
    sim = Simulator()
    adb = SimulatedAdb()
    streams = RandomStreams(seed)
    phones = []
    for i, spec in enumerate(build_fleet(n_bench, 0, "SIM")):
        phone = VirtualPhone(sim, f"ph-{i:02d}", spec, streams=streams, is_msp=latency > 0)
        adb.register(phone)
        phones.append(phone)
    mgr = manager(
        sim, adb, phones,
        cost_model=PhysicalCostModel(beta={"High": beta}, stage_window=window, msp_control_latency=latency),
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
    return sim, mgr, phones, streams, plan


def bits(value) -> bytes:
    return struct.pack("<d", value) if isinstance(value, float) else repr(value).encode()


def observed(mgr, phones, streams, ends) -> dict:
    """Everything the sampler leaves behind, floats as their bytes."""
    records = [
        ((r.serial, r.device_id, r.round_index), r.boundaries,
         [tuple(bits(v) for v in vars(sample).values()) for sample in r.samples])
        for r in mgr.benchmark_records
    ]
    readers = [(phone._noise._read, phone.battery._rng._read) for phone in phones]
    return {"records": records, "ends": ends, "streams": stream_states(streams), "readers": readers}


def assert_same(a: dict, b: dict) -> None:
    assert a["ends"] == b["ends"]
    assert len(a["records"]) == len(b["records"])
    for rec_a, rec_b in zip(a["records"], b["records"]):
        assert rec_a == rec_b
    assert a["streams"] == b["streams"]
    assert a["readers"] == b["readers"]


# ----------------------------------------------------------------------
# whole rounds: production == ticker == per-phone ADB-text loops
# ----------------------------------------------------------------------
def run_benchmark_session(manager, poll: float, window: float, n_bench: int, rounds: int, seed: int,
                          latency: float = 0.0):
    sim, mgr, phones, streams, plan = rig(manager, n_bench, poll, window, seed, latency)
    ends = []

    def drive():
        yield sim.process(mgr.prepare([plan], task_id="t"))
        for round_index in range(1, rounds + 1):
            yield sim.process(mgr.run_round(round_index, None, 0.0, MODEL_BYTES, CallbackSink(lambda o: None)))
            ends.append(sim.now)

    sim.process(drive())
    if manager is ReferencePhoneMgr:
        run_per_event(sim)
    else:
        sim.run()
    return observed(mgr, phones, streams, ends), mgr


@given(
    poll=st.sampled_from([0.5, 1.0, 2.5, 5.0, 15.0]) | st.floats(0.05, 40.0),
    window=st.sampled_from([5.0, 15.0]) | st.floats(0.5, 20.0),
    n_bench=st.integers(min_value=1, max_value=3),
    rounds=st.integers(min_value=1, max_value=2),
    latency=st.sampled_from([0.0, 0.8]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_rounds_match_the_ticker_and_the_per_phone_loops(poll, window, n_bench, rounds, latency, seed):
    production, mgr = run_benchmark_session(PhoneMgr, poll, window, n_bench, rounds, seed, latency)
    ticker, ticker_mgr = run_benchmark_session(TickerPhoneMgr, poll, window, n_bench, rounds, seed, latency)
    loops, _ = run_benchmark_session(ReferencePhoneMgr, poll, window, n_bench, rounds, seed, latency)
    assert_same(ticker, production)
    assert_same(loops, production)
    for rec_a, rec_b in zip(ticker_mgr.benchmark_records, mgr.benchmark_records):
        assert rec_a.stage_summaries() == rec_b.stage_summaries()


# ----------------------------------------------------------------------
# phones registering at any offset of a lattice, and aborts
# ----------------------------------------------------------------------
def protocol_close(start: float, window: float, latency: float, training: float) -> float:
    """The instant a protocol started at ``start`` takes its last boundary snap (the kernel's sums)."""
    now = start
    for delay in (latency, window, latency, window, training, window, latency, window):
        if delay > 0:
            now = now + delay
    return now


def run_offsets(manager, poll, window, latency, beta, groups, abort_after, seed):
    """Protocols started in groups at drawn instants on one PhoneMgr; optionally an abort.

    ``groups`` is ``[(anchor, ticks, fraction, size), ...]``: group ``j > 0``
    starts ``ticks`` lattice steps (repeated addition, as the sampler's
    ticks) plus ``fraction`` of a poll interval after the first group's
    start (``anchor == "tick"``), or ``fraction`` of one after the
    previous group's last boundary snap (``anchor == "close"``: before or
    after its lattice's last tick).  One callback starts a group's phones.
    """
    n_bench = sum(size for *_, size in groups)
    sim, mgr, phones, streams, plan = rig(manager, n_bench, poll, window, seed, latency, beta)
    training = mgr.cost_model.training_duration("High", plan.flow.total_work)
    ends, chosen = {}, []

    def protocol(phone, row):
        yield sim.process(mgr._run_benchmark_phone(phone, plan, row, 1, None, 0.0, MODEL_BYTES, lambda block: None,
                                                   mgr._epoch))
        ends[row] = sim.now

    def start_group(rows):
        for row in rows:
            sim.process(protocol(chosen[row], row))

    def drive():
        yield sim.process(mgr.prepare([plan], task_id="t"))
        chosen.extend(mgr.benchmark_phones["High"])
        origin = previous = sim.now
        row = 0
        for j, (anchor, ticks, fraction, size) in enumerate(groups):
            at = origin
            if j and anchor == "tick":
                for _ in range(ticks):
                    at = at + poll
            elif j:
                at = protocol_close(previous, window, latency, training)
            at = at + fraction * poll if j and fraction else at
            sim.schedule_at(at, start_group, list(range(row, row + size)))
            row += size
            previous = at
        if abort_after is not None:
            yield Timeout(abort_after)
            yield Timeout(0.0)  # a failure reaches abort a zero-delay hop later, as through TaskRunner
            mgr.abort()

    sim.process(drive())
    sim.run()
    return observed(mgr, phones, streams, sorted(ends.items()))


GROUPS = st.lists(
    st.tuples(
        st.sampled_from(["tick", "close"]),
        st.integers(0, 90),
        st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 0.999),
        st.integers(1, 2),
    ),
    min_size=1,
    max_size=4,
)


@given(
    poll=st.sampled_from([0.25, 0.5, 1.0, 5.0]) | st.floats(0.05, 30.0),
    window=st.sampled_from([5.0, 15.0]) | st.floats(0.5, 20.0),
    latency=st.sampled_from([0.0, 0.75]),
    beta=st.sampled_from([16.0, 16.2]) | st.floats(1.0, 30.0),
    groups=GROUPS,
    abort_after=st.none() | st.floats(0.0, 200.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
# Ticks every 0.5 s land exactly on every stage boundary and on the training finish (t = 26).
@example(poll=0.5, window=5.0, latency=0.0, beta=16.0, groups=[("tick", 0, 0.0, 2)], abort_after=None, seed=3)
# An abort in the middle of the training stage, with a second phone joining on a tick and a third while
# the lattice runs down.
@example(poll=1.0, window=5.0, latency=0.0, beta=16.0,
         groups=[("tick", 0, 0.0, 1), ("tick", 3, 0.0, 1), ("close", 0, 0.5, 1)], abort_after=62.3, seed=5)
# An abort at a tick's own instant, a zero-delay hop after it: the tick fired first and is sampled.
@example(poll=1.0, window=5.0, latency=0.0, beta=16.0, groups=[("tick", 0, 0.0, 2)], abort_after=7.0, seed=1)
# An abort before the last registered phone's first tick and first boundary: its pass has nothing to read.
@example(poll=5.0, window=5.0, latency=0.0, beta=16.0,
         groups=[("tick", 0, 0.0, 3), ("tick", 0, 0.25, 1)], abort_after=2.0, seed=0)
@settings(max_examples=60, deadline=None)
def test_any_registration_offset_matches_the_ticker(poll, window, latency, beta, groups, abort_after, seed):
    args = (poll, window, latency, beta, groups, abort_after, seed)
    assert_same(run_offsets(TickerPhoneMgr, *args), run_offsets(PhoneMgr, *args))


@pytest.mark.parametrize("manager", [PhoneMgr, TickerPhoneMgr])
@pytest.mark.parametrize("stage", [1, 2, 3, 4, 5])
def test_an_aborted_protocol_sends_the_released_phone_nothing(manager, stage):
    sim, mgr, phones, _, plan = rig(manager, 2, poll=1.0, window=5.0, seed=4, latency=0.75)
    training = mgr.cost_model.training_duration("High", plan.flow.total_work)
    # Stage k of a protocol started at 0 spans (ends[k - 1], ends[k]]; the abort lands in its middle.
    ends = list(accumulate([0.0, 5.75, 5.75, training, 5.0, 5.75]))
    commands, outcomes, at_abort = [], [], {}
    shell = mgr.adb.shell

    def logged_shell(serial, command):
        commands.append((sim.now, serial, command))
        return shell(serial, command)

    mgr.adb.shell = logged_shell

    def abort():
        mgr.abort()
        at_abort.update(commands=len(commands), outcomes=len(outcomes),
                        records=[(list(r.boundaries), len(r.samples)) for r in mgr.benchmark_records])

    def drive():
        yield sim.process(mgr.prepare([plan], task_id="t"))
        origin = sim.now
        sim.schedule_at(origin + (ends[stage - 1] + ends[stage]) / 2, abort)
        voided = yield sim.process(mgr.run_round(1, None, 0.0, MODEL_BYTES, CallbackSink(outcomes.append)))
        assert voided

    sim.process(drive())
    sim.run()
    assert at_abort, "the abort never ran"
    assert commands[at_abort["commands"]:] == []  # the released phones hear nothing more
    assert len(outcomes) == at_abort["outcomes"] == (0 if stage <= 3 else 2)
    assert [(list(r.boundaries), len(r.samples)) for r in mgr.benchmark_records] == at_abort["records"]
    assert [len(r.boundaries) for r in mgr.benchmark_records] == [stage - 1] * 2
    assert all(phone.running_pid is None for phone in phones)


# ----------------------------------------------------------------------
# whole runs of the ledger's phone workloads
# ----------------------------------------------------------------------
def ledger_workloads():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "workloads.py"
    spec = util.spec_from_file_location("ledger_workloads", path)
    module = util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["direct_hybrid", "diurnal_mixed"])
def test_whole_runs_match_the_ticker(workload, monkeypatch):
    workloads = ledger_workloads()
    scale = workloads.SCALES[workload]
    runs = []
    for manager in (PhoneMgr, TickerPhoneMgr):
        monkeypatch.setattr("repro.scheduler.task_runner.PhoneMgr", manager)
        runner = ScenarioRunner(workloads.build_spec(workload, scale, seed=0))
        report = runner.run()
        records = [
            ((r.serial, r.device_id, r.round_index), r.boundaries,
             [tuple(bits(v) for v in vars(sample).values()) for sample in r.samples])
            for task_id, result in sorted(runner.platform.results.items())
            for r in result.benchmark_records
        ]
        runs.append((workloads.report_digest(report), records, runner.platform.sim.now))
    assert runs[0][1], "the workload ran no benchmarking phone"
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# computing phones' wave views
# ----------------------------------------------------------------------
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


class TestRecurringTimeout:
    def test_tick_schedule_accumulates_like_a_generator_loop(self):
        # A recurring tick must land on the same float timestamps as a
        # process looping over `yield Timeout(interval)` (now + delay
        # accumulation, NOT first + k * interval).
        interval = 0.1  # not exactly representable -> accumulation matters
        sim = Simulator()
        ticks = []
        handle = schedule_recurring(sim, interval, lambda: ticks.append(sim.now), first_at=0.0)
        sim.schedule_at(2.0, handle.cancel)
        sim.run()

        reference_sim = Simulator()
        reference = []

        def loop():
            while reference_sim.now <= 2.0:
                reference.append(reference_sim.now)
                yield Timeout(interval)

        reference_sim.process(loop())
        reference_sim.run()
        assert ticks == reference[: len(ticks)]
        assert len(ticks) >= 20

    def test_cancel_from_inside_callback(self):
        sim = Simulator()
        fired = []
        handle = schedule_recurring(
            sim, 1.0, lambda: (fired.append(sim.now), fired and len(fired) >= 3 and handle.cancel()), first_at=1.0
        )
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert handle.cancelled
        assert sim.pending_events == 0

    def test_default_first_fire_is_one_interval_out(self):
        sim = Simulator()
        fired = []
        handle = schedule_recurring(sim, 2.0, lambda: fired.append(sim.now), first_at=2.0)
        sim.run(until=5.0)
        handle.cancel()
        assert fired == [2.0, 4.0]
        assert sim.pending_events == 0

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                schedule_recurring(sim, bad, lambda: None, first_at=0.0)
