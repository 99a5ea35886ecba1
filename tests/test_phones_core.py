"""Unit tests for phone specs, battery, APK model and the virtual phone."""

import numpy as np
import pytest

from repro.phones import ApkStage, BatteryModel, PhysicalCostModel, TrainingApk, VirtualPhone
from repro.phones.specs import DEFAULT_LOCAL_FLEET, DEFAULT_MSP_FLEET, PhoneSpec, build_fleet
from repro.simkernel import RandomStreams, Simulator

from reference import sampler_reference as sensors


class TestSpecs:
    def test_default_local_fleet_matches_paper(self):
        grades = [spec.grade for spec in DEFAULT_LOCAL_FLEET]
        assert len(DEFAULT_LOCAL_FLEET) == 10
        assert grades.count("High") == 4
        assert grades.count("Low") == 6
        # Paper: High has more than 8 GB, Low less than 8 GB.
        assert all(s.memory_gb > 8 for s in DEFAULT_LOCAL_FLEET if s.grade == "High")
        assert all(s.memory_gb < 8 for s in DEFAULT_LOCAL_FLEET if s.grade == "Low")

    def test_default_msp_fleet_matches_paper(self):
        grades = [spec.grade for spec in DEFAULT_MSP_FLEET]
        assert len(DEFAULT_MSP_FLEET) == 20
        assert grades.count("High") == 13
        assert grades.count("Low") == 7

    def test_stage_currents_default_by_grade(self):
        high = DEFAULT_LOCAL_FLEET[0]
        low = DEFAULT_LOCAL_FLEET[5]
        assert high.stage_current(ApkStage.TRAINING) < low.stage_current(ApkStage.TRAINING)

    def test_build_fleet(self):
        fleet = build_fleet(3, 2, "SIM")
        assert len(fleet) == 5
        assert sum(1 for s in fleet if s.grade == "High") == 3

    def test_build_fleet_validation(self):
        with pytest.raises(ValueError):
            build_fleet(-1, 0, "SIM")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PhoneSpec("x", "High", 0, 1.0, 4.0, False, 4000)
        with pytest.raises(ValueError):
            PhoneSpec("x", "High", 8, 1.0, 4.0, False, -5)


class TestBatteryModel:
    def test_accumulate_and_soc(self):
        battery = BatteryModel(1000, 3850.0, np.random.default_rng(0))
        consumed = battery.accumulate(current_ma=100, duration_s=3600)
        assert consumed == pytest.approx(100.0)
        assert battery.state_of_charge == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatteryModel(0, 3850.0, np.random.default_rng(0))
        battery = BatteryModel(1000, 3850.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            battery.accumulate(-1, 10)
        with pytest.raises(ValueError):
            battery.accumulate(1, -10)

    def test_current_now_is_negative_microamps(self):
        battery = BatteryModel(1000, 3850.0, RandomStreams(0).get("b"))
        reading = sensors.battery_current_now_ua(battery, mean_current_ma=50)
        assert reading < 0
        assert abs(reading) == pytest.approx(50_000, rel=0.3)

    def test_voltage_sags_with_discharge(self):
        battery = BatteryModel(1000, 3850.0, RandomStreams(0).get("b"))
        fresh = sensors.battery_voltage_now_uv(battery)
        battery.accumulate(1000, 3600)  # fully drain
        drained = sensors.battery_voltage_now_uv(battery)
        assert drained < fresh
        assert fresh == pytest.approx(3_850_000, rel=0.01)


class TestTrainingApk:
    def test_component(self):
        apk = TrainingApk()
        assert apk.component == "com.simdc.train/.MainActivity"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingApk(package="bad/name")
        with pytest.raises(ValueError):
            TrainingApk(size_bytes=0)


class TestPhysicalCostModel:
    def test_table1_durations(self):
        model = PhysicalCostModel()
        assert model.training_duration("High", 10.4) == pytest.approx(16.2)
        assert model.training_duration("Low", 10.4) == pytest.approx(21.6)
        # Table I: 0.27 and 0.36 minutes.
        assert model.training_duration("High", 10.4) / 60 == pytest.approx(0.27)
        assert model.training_duration("Low", 10.4) / 60 == pytest.approx(0.36)

    def test_unknown_grade(self):
        with pytest.raises(KeyError):
            PhysicalCostModel().training_duration("Ultra", 10.4)
        with pytest.raises(KeyError):
            PhysicalCostModel().startup_duration("Ultra")

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalCostModel(beta={})
        with pytest.raises(ValueError):
            PhysicalCostModel(beta={"High": 0.0})
        with pytest.raises(ValueError):
            PhysicalCostModel(stage_window=0)

    @pytest.mark.parametrize("field", ["beta", "framework_startup"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_constant_rejected_naming_field_grade_and_value(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field}\['High'\] must be a finite number > 0, got {bad!r}$"):
            PhysicalCostModel(**{field: {"High": bad, "Low": 20.0}})


def make_phone(grade="High", seed=0):
    sim = Simulator()
    spec = next(s for s in DEFAULT_LOCAL_FLEET if s.grade == grade)
    phone = VirtualPhone(sim, "test-phone", spec, streams=RandomStreams(seed))
    return sim, phone


class TestVirtualPhone:
    def test_lifecycle_stages(self):
        sim, phone = make_phone()
        apk = TrainingApk()
        phone.install_apk(apk)
        phone.clear_background()
        assert phone.stage is ApkStage.NO_APK
        pid = phone.launch_apk(apk.package)
        assert phone.stage is ApkStage.APK_LAUNCH
        assert pid > 0
        signal = phone.start_training(10.0, upload_bytes=1000)
        assert phone.stage is ApkStage.TRAINING
        sim.run()
        assert signal.fired
        assert phone.stage is ApkStage.POST_TRAINING
        phone.stop_apk()
        assert phone.stage is ApkStage.APK_CLOSURE
        assert phone.running_pid is None

    def test_launch_without_install_rejected(self):
        _, phone = make_phone()
        with pytest.raises(RuntimeError):
            phone.launch_apk("com.simdc.train")

    def test_training_without_apk_rejected(self):
        _, phone = make_phone()
        with pytest.raises(RuntimeError):
            phone.start_training(10.0, 100)

    def test_energy_accounting_matches_currents(self):
        sim, phone = make_phone()
        apk = TrainingApk()
        phone.install_apk(apk)
        phone.clear_background()
        sim.schedule(15.0, phone.launch_apk, apk.package)
        sim.run()
        expected = phone.spec.stage_current(ApkStage.NO_APK) * 15.0 / 3600.0
        assert phone.exact_stage_energy(ApkStage.NO_APK) == pytest.approx(expected)

    def test_high_grade_training_cheaper_than_low(self):
        """Table I: High devices use less energy per training stage."""
        energies = {}
        for grade, duration in (("High", 16.2), ("Low", 21.6)):
            sim, phone = make_phone(grade)
            apk = TrainingApk()
            phone.install_apk(apk)
            phone.clear_background()
            phone.launch_apk(apk.package)
            phone.start_training(duration, upload_bytes=33000)
            sim.run()
            phone.set_idle()
            energies[grade] = phone.exact_stage_energy(ApkStage.TRAINING)
        assert energies["High"] < energies["Low"]

    def test_cpu_trace_shape_during_training(self):
        sim, phone = make_phone()
        apk = TrainingApk()
        phone.install_apk(apk)
        phone.clear_background()
        pid = phone.launch_apk(apk.package)
        phone.start_training(60.0, upload_bytes=1000)
        readings = []
        for t in range(0, 60, 2):
            sim.run(until=float(t))
            readings.append(sensors.cpu_percent(phone, pid))
        assert all(0.0 <= r <= 15.0 for r in readings)
        assert max(readings) > 8.0  # oscillation reaches the busy peaks
        assert min(readings) < 8.0

    def test_memory_ramps_during_training(self):
        sim, phone = make_phone()
        apk = TrainingApk()
        phone.install_apk(apk)
        phone.clear_background()
        phone.launch_apk(apk.package)
        phone.start_training(30.0, upload_bytes=1000)
        sim.run(until=1.0)
        early = sensors.memory_pss_kb(phone, apk.package)
        sim.run(until=25.0)
        late = sensors.memory_pss_kb(phone, apk.package)
        assert late > early
        assert late < 60 * 1024  # stays under ~60 MB (Fig. 5 scale)

    def test_net_counters_land_after_training(self):
        sim, phone = make_phone()
        apk = TrainingApk()
        phone.install_apk(apk)
        phone.clear_background()
        pid = phone.launch_apk(apk.package)
        phone.start_training(10.0, upload_bytes=32840)
        sim.run(until=0.5)
        rx0, tx0 = sensors.net_dev_bytes(phone, pid)
        sim.run()
        rx1, tx1 = sensors.net_dev_bytes(phone, pid)
        total_delta = (rx1 + tx1) - (rx0 + tx0)
        # Table I: ~33.10 KB of communication during the training stage.
        assert total_delta == pytest.approx(33.1 * 1024, rel=0.05)

    def test_wrong_pid_reads_zero(self):
        sim, phone = make_phone()
        apk = TrainingApk()
        phone.install_apk(apk)
        phone.clear_background()
        pid = phone.launch_apk(apk.package)
        assert sensors.cpu_percent(phone, pid + 1) == 0.0
        assert sensors.net_dev_bytes(phone, pid + 1) == (0, 0)
        assert sensors.memory_pss_kb(phone, "other.package") == 0

    def test_pgrep(self):
        sim, phone = make_phone()
        apk = TrainingApk()
        phone.install_apk(apk)
        assert sensors.pgrep(phone, apk.package) is None
        pid = phone.launch_apk(apk.package)
        assert sensors.pgrep(phone, apk.package) == pid
        assert sensors.pgrep(phone, "com.simdc") == pid  # substring match, like pgrep -f
