"""Integration tests for PhoneMgr: staging, rounds, benchmarking, MSP."""

import numpy as np
import pytest
from helpers import CallbackSink

from repro.cluster import DeviceColumns
from repro.data import SyntheticAvazu
from repro.ml import standard_fl_flow
from repro.phones import (
    MobileServicePlatform,
    PhoneAssignment,
    PhoneMgr,
    PhysicalCostModel,
    SimulatedAdb,
    VirtualPhone,
)
from repro.phones.apk import ApkStage
from repro.phones.specs import DEFAULT_LOCAL_FLEET, DEFAULT_MSP_FLEET
from repro.simkernel import ProcessError, RandomStreams, Simulator


def build_rig(n_local=10, poll_interval=1.0, cost_model=None):
    sim = Simulator()
    adb = SimulatedAdb()
    streams = RandomStreams(5)
    phones = []
    for i, spec in enumerate(DEFAULT_LOCAL_FLEET[:n_local]):
        phone = VirtualPhone(sim, f"local-{i:02d}", spec, streams=streams)
        adb.register(phone)
        phones.append(phone)
    mgr = PhoneMgr(
        sim,
        adb,
        phones,
        cost_model=cost_model or PhysicalCostModel(),
        streams=streams,
        poll_interval=poll_interval,
        busy_registry=set(),
    )
    return sim, adb, mgr, phones


def time_only_plan(grade, n_devices, n_phones, n_bench=0):
    return PhoneAssignment(
        grade=grade,
        devices=DeviceColumns([f"{grade}-d{i}" for i in range(n_devices)], [10] * n_devices),
        benchmarking=DeviceColumns([f"{grade}-bench{i}" for i in range(n_bench)], [10] * n_bench),
        n_phones=n_phones,
        flow=standard_fl_flow(),
        numeric=False,
    )


class TestPlanValidation:
    def test_both_column_sets_fail_at_construction_naming_grade_and_field(self):
        def plan(devices, benchmarking, n_phones=1, numeric=False):
            return PhoneAssignment(
                grade="Low", devices=devices, benchmarking=benchmarking,
                n_phones=n_phones, flow=standard_fl_flow(), numeric=numeric,
            )

        none, one = DeviceColumns([], []), DeviceColumns(["d0"], [10])
        with pytest.raises(ValueError, match="'Low' plan: computing devices require at least one phone"):
            plan(one, none, n_phones=0)
        with pytest.raises(ValueError, match=r"'Low' plan: benchmarking\.n_samples must be positive"):
            plan(one, DeviceColumns(["b0"], [0]))
        with pytest.raises(ValueError, match=r"'Low' plan: benchmarking\.n_samples has 2 rows for 1"):
            plan(one, DeviceColumns(["b0"], [10, 10]))
        with pytest.raises(ValueError, match=r"'Low' plan: numeric=True needs benchmarking\.datasets"):
            plan(none, one, n_phones=0, numeric=True)
        plan(none, one, n_phones=0)  # a benchmarking-only plan needs no computing phone


class TestSelection:
    def test_local_preferred_over_msp(self):
        sim, adb, mgr, phones = build_rig(n_local=4)
        msp = MobileServicePlatform(sim, adb, DEFAULT_MSP_FLEET, streams=RandomStreams(1))
        mgr.phones.extend(msp.provision())
        chosen = mgr.select_phones("High", 3)
        assert all(not phone.is_msp for phone in chosen)

    def test_selection_overflows_to_msp(self):
        sim, adb, mgr, phones = build_rig(n_local=10)
        msp = MobileServicePlatform(sim, adb, DEFAULT_MSP_FLEET, streams=RandomStreams(1))
        mgr.phones.extend(msp.provision())
        chosen = mgr.select_phones("High", 10)  # only 4 local High exist
        assert sum(1 for phone in chosen if phone.is_msp) == 6

    def test_insufficient_phones_rejected(self):
        _, _, mgr, _ = build_rig(n_local=10)
        with pytest.raises(RuntimeError):
            mgr.select_phones("High", 5)

    def test_release_returns_to_pool(self):
        _, _, mgr, _ = build_rig()
        chosen = mgr.select_phones("High", 4)
        assert len(mgr.available_phones("High")) == 0
        mgr.release_phones(chosen)
        assert len(mgr.available_phones("High")) == 4


class TestPrepareReservationLeak:
    def plans_with_failing_second(self):
        # Plan 1 fits; plan 2 requests more Low phones than exist, so
        # select_phones raises after plan 1's reservations were taken.
        return [
            time_only_plan("High", n_devices=4, n_phones=3, n_bench=1),
            time_only_plan("Low", n_devices=40, n_phones=20),
        ]

    def test_failed_prepare_releases_reserved_phones(self):
        sim, _, mgr, phones = build_rig(n_local=10)
        free_high = len(mgr.available_phones("High"))
        free_low = len(mgr.available_phones("Low"))
        proc = sim.process(mgr.prepare(self.plans_with_failing_second(), task_id="task"))
        with pytest.raises(ProcessError):
            sim.run()
        assert proc.error is not None
        # Nothing stays in the busy registry, and the manager is reusable.
        assert len(mgr.available_phones("High")) == free_high
        assert len(mgr.available_phones("Low")) == free_low
        assert mgr.plans == []
        assert mgr.computing_phones == {}
        # No orphaned framework-startup processes may touch the released
        # phones: after the queue drains, every phone is untouched — not
        # stuck mid-APK-launch draining battery or racing a sibling task.
        sim.run()
        assert sim.pending_events == 0
        for phone in phones:
            assert phone.running_pid is None
            assert phone.stage is None

    def test_failed_prepare_leaves_shared_registry_clean(self):
        sim, adb, mgr, phones = build_rig(n_local=10)
        sibling = PhoneMgr(
            sim, adb, phones, PhysicalCostModel(), RandomStreams(6), busy_registry=mgr._busy,
        )
        with pytest.raises(RuntimeError):
            list(mgr.prepare(self.plans_with_failing_second(), task_id="task"))
        # A sibling task sharing the registry can still book every phone.
        assert len(sibling.available_phones("High")) == 4
        assert len(sibling.available_phones("Low")) == 6

    def test_successful_prepare_after_failed_one(self):
        sim, _, mgr, _ = build_rig(n_local=10)
        with pytest.raises(RuntimeError):
            list(mgr.prepare(self.plans_with_failing_second(), task_id="task"))
        plan = time_only_plan("High", n_devices=4, n_phones=2)

        def run():
            yield sim.process(mgr.prepare([plan], task_id="task"))
            yield sim.process(mgr.run_round(1, None, 0.0, 0, CallbackSink(lambda o: None)))
            yield sim.process(mgr.teardown())

        sim.process(run())
        sim.run()
        assert len(mgr.available_phones("High")) == 4


class TestRoundExecution:
    def test_time_only_round_makespan(self):
        cost = PhysicalCostModel(
            beta={"High": 10.0}, framework_startup={"High": 45.0}, stage_window=15.0
        )
        sim, adb, mgr, _ = build_rig(cost_model=cost)
        plan = time_only_plan("High", n_devices=8, n_phones=4)
        outcomes = []

        def run():
            start = sim.now
            yield sim.process(mgr.prepare([plan], task_id="t1"))
            prepared = sim.now
            # Framework startup (lambda) is paid once in prepare.
            assert prepared - start == pytest.approx(45.0)
            yield sim.process(
                mgr.run_round(1, None, 0.0, model_bytes=0, sink=CallbackSink(outcomes.append))
            )

        sim.process(run())
        sim.run()
        assert len(outcomes) == 8
        # 8 devices over 4 phones -> 2 sequential trainings of 10 s each
        # (plus negligible staging time with model_bytes=0 and tiny data).
        finish_times = [o.finished_at for o in outcomes]
        assert max(finish_times) - 45.0 < 25.0

    def test_numeric_round_produces_updates(self):
        sim, adb, mgr, _ = build_rig()
        data = SyntheticAvazu(n_devices=4, records_per_device=12, feature_dim=64, seed=2).generate()
        ids = data.device_ids()
        plan = PhoneAssignment(
            grade="Low",
            devices=DeviceColumns.of_shards([data.shard(d) for d in ids]),
            benchmarking=DeviceColumns([], []),
            n_phones=2,
            flow=standard_fl_flow(epochs=1),
            feature_dim=64,
            numeric=True,
        )
        updates = []

        def run():
            yield sim.process(mgr.prepare([plan], task_id="task"))
            yield sim.process(
                mgr.run_round(
                    1, np.zeros(64), 0.0, model_bytes=584,
                    sink=CallbackSink(lambda o: updates.append(o.update)),
                )
            )

        sim.process(run())
        sim.run()
        assert len(updates) == 4
        assert all(u is not None and u.weights.shape == (64,) for u in updates)
        assert plan.backend.name == "mnn-device"

    def test_prepare_twice_rejected(self):
        sim, _, mgr, _ = build_rig()
        plan = time_only_plan("High", 2, 2)

        def run():
            yield sim.process(mgr.prepare([plan], task_id="task"))

        sim.process(run())
        sim.run()
        with pytest.raises(RuntimeError):
            list(mgr.prepare([plan], task_id="task"))

    def test_teardown_releases_phones(self):
        sim, _, mgr, _ = build_rig()
        plan = time_only_plan("High", 2, 2)

        def run():
            yield sim.process(mgr.prepare([plan], task_id="task"))
            yield sim.process(mgr.run_round(1, None, 0.0, 0, CallbackSink(lambda o: None)))
            yield sim.process(mgr.teardown())

        sim.process(run())
        sim.run()
        assert len(mgr.available_phones("High")) == 4
        assert mgr.plans == []


class TestBenchmarking:
    def run_benchmark(self, poll_interval=1.0, n_rounds=1):
        cost = PhysicalCostModel()
        sim, adb, mgr, phones = build_rig(poll_interval=poll_interval, cost_model=cost)
        plan = time_only_plan("High", n_devices=0, n_phones=0, n_bench=1)

        def run():
            yield sim.process(mgr.prepare([plan], task_id="task"))
            for round_index in range(1, n_rounds + 1):
                yield sim.process(mgr.run_round(round_index, None, 0.0, 33000, CallbackSink(lambda o: None)))

        sim.process(run())
        sim.run()
        return mgr, [sample for record in mgr.benchmark_records for sample in record.samples]

    def test_five_stages_recorded(self):
        mgr, _ = self.run_benchmark()
        record = mgr.benchmark_records[0]
        stages = [stage for stage, _, _ in record.boundaries]
        assert stages == [
            ApkStage.NO_APK,
            ApkStage.APK_LAUNCH,
            ApkStage.TRAINING,
            ApkStage.POST_TRAINING,
            ApkStage.APK_CLOSURE,
        ]

    def test_stage_durations_match_table1(self):
        mgr, _ = self.run_benchmark()
        summaries = mgr.benchmark_records[0].stage_summaries()
        by_stage = {s.stage: s for s in summaries}
        for stage in (1, 2, 4, 5):
            assert by_stage[stage].duration_min == pytest.approx(0.25, abs=0.01)
        assert by_stage[3].duration_min == pytest.approx(0.27, abs=0.01)

    def test_training_stage_energy_in_table1_ballpark(self):
        mgr, _ = self.run_benchmark()
        summaries = {s.stage: s for s in mgr.benchmark_records[0].stage_summaries()}
        # Table I High-grade training: 0.18 mAh over 0.27 min.
        assert summaries[3].power_mah == pytest.approx(0.18, rel=0.35)

    def test_training_stage_comm_near_33kb(self):
        mgr, _ = self.run_benchmark()
        summaries = {s.stage: s for s in mgr.benchmark_records[0].stage_summaries()}
        assert summaries[3].comm_kb == pytest.approx(33.1, rel=0.15)

    def test_samples_land_in_the_round_record(self):
        _, samples = self.run_benchmark()
        # Session lasts ~4*15s + 16.2s ~= 76 s at 1 Hz.
        assert len(samples) > 60
        assert all(s.serial == samples[0].serial for s in samples)

    def test_sampling_gap_between_rounds(self):
        """Fig. 5: no data recorded while waiting for aggregation."""
        mgr, samples = self.run_benchmark(n_rounds=2)
        assert len(mgr.benchmark_records) == 2
        first = mgr.benchmark_records[0]
        second = mgr.benchmark_records[1]
        end_of_first = max(end for _, _, end in first.boundaries)
        start_of_second = min(start for _, start, _ in second.boundaries)
        gap_samples = [
            s for s in samples if end_of_first + 1 < s.timestamp < start_of_second - 1
        ]
        assert gap_samples == []

    def test_stage_summaries_at_high_poll_rate(self):
        """The bisect window selection matches a full rescan at 50 Hz."""
        from reference.sampler_reference import integrate_energy_mah

        mgr, _ = self.run_benchmark(poll_interval=0.02)
        record = mgr.benchmark_records[0]
        assert len(record.samples) > 3000
        summaries = record.stage_summaries()
        # Reference: the O(stages * samples) rescan the bisect replaced.
        for summary, (stage, start, end) in zip(summaries, record.boundaries):
            window = [
                s for s in record.samples if start - 1e-9 <= s.timestamp <= end + 1e-9
            ]
            assert summary.power_mah == integrate_energy_mah(window)
            expected_kb = (
                (window[-1].total_bytes - window[0].total_bytes) / 1024.0
                if len(window) >= 2
                else 0.0
            )
            assert summary.comm_kb == expected_kb
            assert summary.stage == int(stage)


class TestMsp:
    def test_provision_and_release(self):
        sim = Simulator()
        adb = SimulatedAdb()
        msp = MobileServicePlatform(sim, adb, DEFAULT_MSP_FLEET, streams=RandomStreams(0))
        phones = msp.provision()
        assert len(phones) == 20
        assert sum(phone.spec.grade == "High" for phone in phones) == 13
        with pytest.raises(RuntimeError):
            msp.provision()

    def test_partial_availability(self):
        sim = Simulator()
        adb = SimulatedAdb()
        msp = MobileServicePlatform(
            sim, adb, DEFAULT_MSP_FLEET, streams=RandomStreams(0), availability=0.5
        )
        phones = msp.provision()
        assert 0 < len(phones) < 20

    def test_validation(self):
        sim = Simulator()
        adb = SimulatedAdb()
        with pytest.raises(ValueError):
            MobileServicePlatform(sim, adb, DEFAULT_MSP_FLEET, RandomStreams(0), availability=1.5)

    def test_msp_control_latency_delays_round(self):
        sim = Simulator()
        adb = SimulatedAdb()
        streams = RandomStreams(2)
        msp = MobileServicePlatform(sim, adb, DEFAULT_MSP_FLEET[:2], streams=streams)
        phones = msp.provision()
        cost = PhysicalCostModel(msp_control_latency=0.8)
        mgr = PhoneMgr(sim, adb, phones, cost, streams, busy_registry=set())
        plan = time_only_plan("High", n_devices=2, n_phones=2)

        def run():
            start = sim.now
            yield sim.process(mgr.prepare([plan], task_id="task"))
            # lambda (45s) + one control-latency hit per remote phone.
            assert sim.now - start == pytest.approx(45.0 + 0.8)

        sim.process(run())
        sim.run()
