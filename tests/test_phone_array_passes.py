"""Differential suite: the phone tier's array passes equal their scalar oracle.

``PhoneMgr._completion_times`` runs one clock pass per plan and a phone's
session accounts are ``np.add.accumulate`` passes over increments computed
once per plan (``session_accounts``); ``reference.phone_reference`` keeps the
per-phone clock and the scalar replay loop they replaced.  Every finish
time, queue and phone account must be bit-identical: for 1-6 phones, ragged
and one-session queues, gaps below, equal to and above zero, repeated
rounds, a negative payload, and a round aborted mid-way (a voided replay
leaves the phone as the oracle leaves it).
"""

import numpy as np
import pytest
from helpers import CallbackSink
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference.phone_reference import ClockReferencePhoneMgr, completion_times, replay_training_sessions

from repro.cluster import DeviceColumns
from repro.ml import standard_fl_flow
from repro.phones import PhoneAssignment, PhoneMgr, PhysicalCostModel, SimulatedAdb, VirtualPhone, build_fleet
from repro.phones.adb import AdbError
from repro.phones.apk import ApkStage, TrainingApk
from repro.phones.phone import session_accounts
from repro.phones.phonemgr import _tie_order
from repro.simkernel import RandomStreams, Signal, Simulator, Timeout


def accounts(phone: VirtualPhone) -> tuple:
    """Everything a replay writes, floats as hex so a sign or ulp difference shows."""

    def exact(value):
        return None if value is None else float(value).hex()

    return (
        exact(phone.battery.consumed_mah),
        [(stage, exact(value)) for stage, value in phone.stage_energy_mah.items()],
        [(stage, exact(value)) for stage, value in phone.stage_durations.items()],
        phone._net_rx_base,
        phone._net_tx_base,
        phone.sessions_completed,
        phone.stage,
        exact(phone._stage_entered_at),
        exact(phone._training_started_at),
        exact(phone._training_duration),
        phone._training_upload_bytes,
    )


def running_phones(n_phones: int) -> list[VirtualPhone]:
    """``n_phones`` phones of mixed grades, each with the APK launched at t = 0."""
    sim, apk = Simulator(), TrainingApk()
    phones = []
    for i, spec in enumerate(build_fleet(n_phones - n_phones // 2, n_phones // 2, "SIM")):
        phone = VirtualPhone(sim, f"ph-{i}", spec, RandomStreams(3))
        phone.install_apk(apk)
        phone.launch_apk(apk.package)
        phones.append(phone)
    return phones


def session_starts(draw, duration: float, origin: float) -> list[float]:
    """One phone's session starts: each a gap below, at or above zero after the last session's end."""
    starts = [origin + draw(st.floats(0.0, 50.0))]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["below", "zero", "above"]))
        gap = {"below": -draw(st.floats(1e-6, duration)), "zero": 0.0, "above": draw(st.floats(1e-9, 30.0))}[kind]
        starts.append(starts[-1] + duration + gap)
    return starts


@st.composite
def replay_rounds(draw):
    """Per-round session starts for 1-6 phones: ragged queues, one-session queues, any gap sign."""
    n_phones = draw(st.integers(1, 6))
    duration = draw(st.sampled_from([0.25, 1.0 / 3.0, 17.5, 1234.567]))
    upload = draw(st.integers(0, 40_000))
    rounds, origin = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        rows = [session_starts(draw, duration, origin) for _ in range(n_phones)]
        rounds.append(rows)
        origin = max(row[-1] for row in rows) + duration
    return n_phones, duration, upload, rounds


class TestSessionAccounts:
    @settings(max_examples=150, deadline=None)
    @given(replay_rounds())
    def test_accumulate_passes_equal_the_scalar_loop(self, case):
        n_phones, duration, upload, rounds = case
        oracle, production = running_phones(n_phones), running_phones(n_phones)
        for rows in rounds:
            waves = max(len(row) for row in rows)
            starts = np.zeros((n_phones, waves))
            for p, row in enumerate(rows):
                starts[p, : len(row)] = row
            increments = session_accounts(production, starts, starts + duration)
            for p, row in enumerate(rows):
                replay_training_sessions(oracle[p], row, duration, upload)
                production[p].replay_training_sessions(
                    row[0], row[-1], duration, upload, increments[:, p, : 2 * len(row) + 1]
                )
        for expected, phone in zip(oracle, production):
            assert accounts(phone) == accounts(expected)

    def test_all_gaps_non_positive_opens_no_post_training_account(self):
        (oracle,), (production,) = running_phones(1), running_phones(1)
        row = [5.0, 6.0, 6.5]  # duration 1.0: gaps 0.0 and -0.5
        replay_training_sessions(oracle, row, 1.0, 10)
        increments = session_accounts([production], np.array([row]), np.array([row]) + 1.0)
        production.replay_training_sessions(5.0, 6.5, 1.0, 10, increments[:, 0])
        assert accounts(production) == accounts(oracle)
        assert ApkStage.POST_TRAINING not in production.stage_energy_mah

    def test_validation(self):
        (phone,) = running_phones(1)
        with pytest.raises(ValueError, match="upload_bytes"):
            phone.replay_training_sessions(0.0, 0.0, 1.0, -1, np.zeros((2, 3)))
        phone.running_pid = None
        with pytest.raises(RuntimeError, match="no running APK"):
            phone.replay_training_sessions(0.0, 0.0, 1.0, 0, np.zeros((2, 3)))


def rig(manager, n_phones: int):
    sim, adb, streams = Simulator(), SimulatedAdb(), RandomStreams(11)
    phones = []
    for i, spec in enumerate(build_fleet(n_phones, 0, "SIM")):
        phone = VirtualPhone(sim, f"ph-{i:02d}", spec, streams=streams)
        adb.register(phone)
        phones.append(phone)
    mgr = manager(
        sim, adb, phones, cost_model=PhysicalCostModel(stage_window=15.0), streams=streams, busy_registry=set(),
    )
    return sim, mgr, phones


def plan_of(n_samples: list[int], n_phones: int) -> PhoneAssignment:
    return PhoneAssignment(
        grade="High",
        devices=DeviceColumns([f"d{i}" for i in range(len(n_samples))], n_samples),
        benchmarking=DeviceColumns([], []),
        n_phones=n_phones,
        flow=standard_fl_flow(),
        numeric=False,
    )


def prepared(manager, plan: PhoneAssignment):
    sim, mgr, phones = rig(manager, plan.n_phones)
    sim.process(mgr.prepare([plan], task_id="t"))
    sim.run()
    return mgr, phones


@st.composite
def clock_cases(draw):
    n_phones = draw(st.integers(1, 6))
    # Fewer devices than phones, exact multiples and ragged remainders.
    n_samples = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=5 * n_phones + 3))
    return n_samples, n_phones, draw(st.integers(0, 100_000)), draw(st.integers(0, 100_000))


class TestPlanClock:
    @settings(max_examples=120, deadline=None)
    @given(clock_cases())
    @example(case=([2, 1, 1, 2], 2, 0, 0))  # both phones finish wave 2 together, phone 1's chain first
    def test_one_pass_per_plan_equals_one_clock_per_phone(self, case):
        n_samples, n_phones, model_bytes, upload_bytes = case
        mgr, phones = prepared(PhoneMgr, plan_of(n_samples, n_phones))
        ref_mgr, ref_phones = prepared(PhoneMgr, plan_of(n_samples, n_phones))
        assert mgr.sim.now == ref_mgr.sim.now > 0
        finished, queues = mgr._completion_times(mgr.plans[0], model_bytes, upload_bytes)
        expected, ref_queues = completion_times(ref_mgr, ref_mgr.plans[0], model_bytes, upload_bytes)
        assert finished.dtype == expected.dtype and finished.tobytes() == expected.tobytes()
        if len(queues) == len(ref_queues):
            assert [rows for rows, _ in queues] == [rows for rows, _ in ref_queues]
        else:  # a tie out of phone order: one queue per device (TestSameInstantFinishers checks the order)
            assert sorted(rows.start for rows, _ in queues) == list(range(len(n_samples)))
        for _, drained in queues:
            drained()
        for _, ref_drained in ref_queues:
            ref_drained()
        for phone, expected_phone in zip(phones, ref_phones):
            assert accounts(phone) == accounts(expected_phone)

    def test_negative_payload_is_refused_with_the_same_error(self):
        for kernel in (PhoneMgr._completion_times, completion_times):
            mgr, _ = prepared(PhoneMgr, plan_of([3, 1, 4, 1, 5], 2))
            with pytest.raises(AdbError, match="cannot push a negative payload"):
                kernel(mgr, mgr.plans[0], -200, 0)


class TestSameInstantFinishers:
    @settings(max_examples=120, deadline=None)
    @given(
        n_phones=st.integers(2, 4),
        waves=st.integers(1, 3),
        short=st.integers(0, 3),
        legs=st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7]), min_size=16, max_size=16),
        training=st.sampled_from([0.1, 0.2, 0.3]),
        origin=st.sampled_from([0.0, 109.0]),
    )
    def test_ties_deliver_in_the_per_device_event_order(self, n_phones, waves, short, legs, training, origin):
        # Legs of a few tenths make float chains meet, often after they diverged
        # and across waves.  Each device runs as the oracle runs it: a push
        # timeout, a training signal fired by a scheduled callback, an upload.
        total = n_phones * waves - (short % n_phones if waves > 1 else 0)
        pushes = np.array(legs[: n_phones * waves]).reshape(n_phones, waves)
        uploads = np.array(legs[12 : 12 + n_phones])
        clock = np.empty((n_phones, 3 * waves + 1))
        clock[:, 0] = origin
        clock[:, 1::3] = pushes
        clock[:, 2::3] = training
        clock[:, 3::3] = uploads[:, None]
        np.cumsum(clock, axis=1, out=clock)
        finished = clock[:, 3::3].T.ravel()[:total]
        sim, fired = Simulator(), []

        def device_chain(p):
            yield Timeout(origin)
            for wave, row in enumerate(range(p, total, n_phones)):
                yield Timeout(pushes[p, wave])
                trained = Signal(name="trained")
                sim.schedule(training, trained.fire)
                yield trained
                yield Timeout(uploads[p])
                fired.append(row)

        for p in range(n_phones):
            sim.process(device_chain(p))
        sim.run()
        order = _tie_order(clock, finished)
        if order is None:
            order = np.lexsort((np.arange(total) % n_phones, finished)).tolist()
        assert fired == order


class TestAbortMidRound:
    @settings(max_examples=40, deadline=None)
    @given(
        n_samples=st.lists(st.integers(1, 400), min_size=1, max_size=24),
        n_phones=st.integers(1, 6),
        abort_after=st.floats(0.0, 400.0),
    )
    def test_voided_replays_leave_the_oracles_accounts(self, n_samples, n_phones, abort_after):
        states = []
        for manager in (ClockReferencePhoneMgr, PhoneMgr):
            sim, mgr, phones = rig(manager, n_phones)
            plan = plan_of(n_samples, n_phones)

            def drive(sim=sim, mgr=mgr, plan=plan):
                yield sim.process(mgr.prepare([plan], task_id="t"))
                yield sim.process(mgr.run_round(1, None, 0.0, 33_000, CallbackSink()))
                round_two = sim.process(mgr.run_round(2, None, 0.0, 33_000, CallbackSink()))
                yield Timeout(abort_after)  # some queues drained, the rest voided
                mgr.abort()
                return (yield round_two)

            proc = sim.process(drive())
            sim.run()
            states.append((proc.result, sim.now, [accounts(phone) for phone in phones]))
        assert states[1] == states[0]
