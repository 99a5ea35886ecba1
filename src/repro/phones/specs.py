"""Phone model catalog and per-grade electrical characteristics.

The currents below are calibrated so that PhoneMgr's measured per-stage
energy reproduces Table I: e.g. a High-grade phone consuming 0.18 mAh over
a 0.27-minute training stage averages ~40 mA, whereas a Low-grade phone's
0.66 mAh over 0.36 minutes averages ~110 mA.  Low-end devices also idle
hotter (less efficient silicon, no big.LITTLE parking), matching the
paper's observation that "High-grade devices exhibit shorter runtime and
lower power consumption".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checks import check_count, check_non_negative_int, check_positive
from repro.phones.apk import ApkStage

#: Average discharge current (mA) per Table-I stage, by grade.
_HIGH_STAGE_CURRENT_MA: dict[ApkStage, float] = {
    ApkStage.NO_APK: 57.6,
    ApkStage.APK_LAUNCH: 122.4,
    ApkStage.TRAINING: 40.0,
    ApkStage.POST_TRAINING: 88.8,
    ApkStage.APK_CLOSURE: 105.6,
}

_LOW_STAGE_CURRENT_MA: dict[ApkStage, float] = {
    ApkStage.NO_APK: 410.4,
    ApkStage.APK_LAUNCH: 432.0,
    ApkStage.TRAINING: 110.0,
    ApkStage.POST_TRAINING: 396.0,
    ApkStage.APK_CLOSURE: 436.8,
}

#: Idle (screen-off, no session) draw by grade.
_IDLE_CURRENT_MA = {"High": 18.0, "Low": 55.0}


@dataclass(frozen=True)
class PhoneSpec:
    """Static hardware description of one phone model.

    Attributes
    ----------
    model:
        Marketing/model string (used in selection and ``adb devices``).
    grade:
        SimDC performance grade.  The paper's default categorisation is
        High (>8 GB memory) vs Low (<8 GB), with finer classification by
        model / CPU frequency / NPU support supported here too.
    cpu_cores / cpu_freq_ghz / memory_gb:
        SoC shape.
    has_npu:
        Whether an NPU accelerates on-device training.
    battery_mah / nominal_voltage_mv:
        Battery pack parameters.
    network_bandwidth_bps:
        Sustained WLAN throughput for data staging.
    stage_current_ma:
        Mean discharge current per APK lifecycle stage.
    idle_current_ma:
        Draw outside any session.
    """

    model: str
    grade: str
    cpu_cores: int
    cpu_freq_ghz: float
    memory_gb: float
    has_npu: bool
    battery_mah: float
    nominal_voltage_mv: float = 3850.0
    network_bandwidth_bps: float = 40e6 / 8
    stage_current_ma: dict[ApkStage, float] = field(default_factory=dict)
    idle_current_ma: float = 25.0

    def __post_init__(self) -> None:
        check_count("cpu_cores", self.cpu_cores)
        for name in ("cpu_freq_ghz", "memory_gb", "battery_mah", "nominal_voltage_mv", "idle_current_ma"):
            check_positive(name, getattr(self, name))
        if not self.stage_current_ma:
            defaults = _HIGH_STAGE_CURRENT_MA if self.grade == "High" else _LOW_STAGE_CURRENT_MA
            object.__setattr__(self, "stage_current_ma", dict(defaults))

    def stage_current(self, stage: ApkStage) -> float:
        """Mean current (mA) drawn in a lifecycle stage."""
        return self.stage_current_ma[stage]


def _high(model: str, cores: int, freq: float, mem: float, npu: bool, battery: float) -> PhoneSpec:
    return PhoneSpec(
        model=model,
        grade="High",
        cpu_cores=cores,
        cpu_freq_ghz=freq,
        memory_gb=mem,
        has_npu=npu,
        battery_mah=battery,
        idle_current_ma=_IDLE_CURRENT_MA["High"],
    )


def _low(model: str, cores: int, freq: float, mem: float, battery: float) -> PhoneSpec:
    return PhoneSpec(
        model=model,
        grade="Low",
        cpu_cores=cores,
        cpu_freq_ghz=freq,
        memory_gb=mem,
        has_npu=False,
        battery_mah=battery,
        idle_current_ma=_IDLE_CURRENT_MA["Low"],
    )


#: The paper's local cluster: 10 phones, 4 High (>8 GB) + 6 Low (<8 GB).
DEFAULT_LOCAL_FLEET: tuple[PhoneSpec, ...] = (
    _high("SDC-X90Pro", 8, 3.2, 16.0, True, 5000),
    _high("SDC-X80", 8, 3.0, 12.0, True, 4800),
    _high("SDC-R11", 8, 2.8, 12.0, True, 4700),
    _high("SDC-R10", 8, 2.8, 10.0, False, 4600),
    _low("SDC-A57", 8, 2.2, 6.0, 5000),
    _low("SDC-A36", 8, 2.0, 6.0, 4900),
    _low("SDC-A17", 8, 1.8, 4.0, 4500),
    _low("SDC-A16", 8, 1.8, 4.0, 4300),
    _low("SDC-K9", 8, 2.0, 6.0, 4600),
    _low("SDC-K7", 8, 1.8, 4.0, 4200),
)

#: The paper's remote Mobile Service Platform: 20 phones, 13 High + 7 Low.
DEFAULT_MSP_FLEET: tuple[PhoneSpec, ...] = tuple(
    [_high(f"MSP-H{i:02d}", 8, 3.0, 12.0, i % 2 == 0, 4800) for i in range(13)]
    + [_low(f"MSP-L{i:02d}", 8, 2.0, 6.0, 4600) for i in range(7)]
)


def build_fleet(n_high: int, n_low: int, prefix: str) -> list[PhoneSpec]:
    """Synthesize an arbitrary fleet (for scaled-up cluster experiments)."""
    check_non_negative_int("n_high", n_high)
    check_non_negative_int("n_low", n_low)
    fleet = [_high(f"{prefix}-H{i:03d}", 8, 3.0, 12.0, i % 2 == 0, 4800) for i in range(n_high)]
    fleet += [_low(f"{prefix}-L{i:03d}", 8, 2.0, 6.0, 4600) for i in range(n_low)]
    return fleet
