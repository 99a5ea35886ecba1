"""Every construction-time number check goes through ``repro.checks``.

One table probes each class or factory that takes a number from a user:
NaN, ``inf`` where the field must be finite, ``True``, ``"1"``, and 2.5
where an integer belongs must each raise a ``ValueError`` that opens with
the field's name.  The first test pins the values that used to construct
without error.
"""

from __future__ import annotations

import math
import re
from functools import partial

import numpy as np
import pytest

from repro.baselines import FederatedScopeLikeSimulator, FedScaleLikeSimulator
from repro.behavior import DiurnalAvailability, NetworkProfile
from repro.checks import (
    check_count,
    check_end,
    check_finite,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_probability,
    is_number,
)
from repro.cloud.aggregation import SampleThresholdTrigger, ScheduledTrigger
from repro.cloud.transport import ChannelModel, ChannelWindow
from repro.cluster import K8sCluster, NodeSpec, ResourceBundle
from repro.cluster.cost import LogicalCostModel
from repro.cluster.rounds import DeviceColumns
from repro.cluster.runner import GradeExecutionPlan
from repro.core.config import PlatformConfig
from repro.data.avazu import SyntheticAvazu
from repro.data.features import HashingEncoder
from repro.data.partition import assign_delay_profiles, label_skew_device_biases
from repro.deviceflow.curves import TrafficCurve, exponential_curve, gaussian_pdf, right_tailed_normal, sin_plus_one
from repro.deviceflow.discretize import choose_tick_width, discretize_curve
from repro.deviceflow.strategy import RealTimeAccumulatedStrategy, TimeIntervalStrategy, TimePoint
from repro.experiments.fig8 import run_fig8_scalability
from repro.ml import standard_fl_flow
from repro.ml.backends import DEVICE_BACKEND, SERVER_BACKEND
from repro.ml.fedavg import ModelUpdate
from repro.ml.model import LogisticRegressionModel
from repro.phones.apk import TrainingApk
from repro.phones.battery import BatteryModel
from repro.phones.cost import PhysicalCostModel
from repro.phones.msp import MobileServicePlatform
from repro.phones.phonemgr import PhoneAssignment, PhoneMgr
from repro.phones.specs import PhoneSpec, build_fleet
from repro.scenarios import FaultSpec, PopulationSpec, ScenarioSpec, TenantSpec, TransportSpec
from repro.scenarios.library import build_scenario
from repro.scheduler.allocation import AllocationProblem, GradeAllocationParams, fixed_ratio_allocation
from repro.scheduler.resource_manager import ResourceManager
from repro.scheduler.task import GradeRequirement, TaskSpec
from repro.simkernel import RandomStreams, Simulator

NAN, INF = math.nan, math.inf


def test_the_values_that_used_to_construct_now_fail_naming_their_field():
    probes = [
        (lambda: TimePoint(1.0, NAN), "count must be an integer >= 1, got nan"),
        (lambda: TimePoint(1.0, 2.5), "count must be an integer >= 1, got 2.5"),
        (lambda: TimePoint(1.0, 3, discard_count=NAN), "discard_count must be an integer >= 0, got nan"),
        (lambda: ScheduledTrigger(NAN, 3), "period_s must be a finite number > 0, got nan"),
        (lambda: ScheduledTrigger(1.0, 2.5), "max_rounds must be an integer >= 1, got 2.5"),
        (lambda: PhysicalCostModel(stage_window=NAN), "stage_window must be a finite number > 0, got nan"),
        (lambda: RealTimeAccumulatedStrategy([True]), "thresholds must be an integer >= 1, got True"),
        (lambda: PopulationSpec(network_mix=[["wifi"]]),
         "network_mix must be a list of [profile, weight] pairs, got [['wifi']]"),
        (lambda: PopulationSpec(night_peak=NAN), "night_peak must be an hour in [0, 24), got nan"),
        (lambda: PopulationSpec(evening_peak=25), "evening_peak must be an hour in [0, 24), got 25"),
    ]
    for build, message in probes:
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_a_fault_end_is_checked_before_it_is_compared_with_the_start():
    """A string or bool ``until`` used to reach ``until <= at``: a bare TypeError, or ``True`` read as 1.0."""
    for until in ("5", True):
        with pytest.raises(ValueError) as caught:
            FaultSpec(kind="message_loss", at=0.0, until=until, factor=0.5)
        assert str(caught.value) == f"until must be a number (inf: no end), got {until!r}"
    assert FaultSpec(kind="message_loss", at=0.0, until=5, factor=0.5).until == 5.0


# ----------------------------------------------------------------------
# the probe table
# ----------------------------------------------------------------------
#: Bad values by the kind of field: an integer, a finite number, and a
#: number that may be ``inf`` (only NaN and non-numbers are wrong there).
INTEGER = (NAN, INF, True, "1", 2.5)
FINITE = (NAN, INF, True, "1")
MAY_BE_INF = (NAN, True, "1")


def _columns(n: int) -> DeviceColumns:
    return DeviceColumns([f"d{i}" for i in range(n)], np.full(n, 8))


def _plan(cls, **fields):
    base = {"grade": "High", "devices": _columns(2), "flow": standard_fl_flow(), "numeric": False}
    if cls is GradeExecutionPlan:
        base.update(n_actors=1, bundle=ResourceBundle())
    else:
        base.update(benchmarking=_columns(0), n_phones=1, backend=DEVICE_BACKEND)
    return cls(**{**base, **fields})


def _grade_params(**fields):
    base = dict(grade="High", n_devices=10, bundles=4, units_per_device=1, n_phones=1, alpha=1.0, beta=1.0, lam=0.0)
    return GradeAllocationParams(**{**base, **fields})


def _phone_spec(**fields):
    base = dict(model="P", grade="High", cpu_cores=8, cpu_freq_ghz=3.0, memory_gb=12.0, has_npu=False, battery_mah=4800)
    return PhoneSpec(**{**base, **fields})


def _fig8(**fields):
    # A bad value is refused before the first scale runs.
    return run_fig8_scalability(**{"scales": (10,), **fields})


#: ``(label, build, field, name, bad values)``: ``build(**{field: value})``
#: constructs, and the error opens with ``name`` (the field, or the path
#: the owning object gives it).
CASES = [
    # scenario specs
    ("PopulationSpec", PopulationSpec, "dropout_prob", "dropout_prob", FINITE),
    ("PopulationSpec", PopulationSpec, "night_peak", "night_peak", FINITE),
    ("PopulationSpec", PopulationSpec, "evening_peak", "evening_peak", FINITE),
    ("PopulationSpec", PopulationSpec, "base_level", "base_level", FINITE),
    ("FaultSpec", partial(FaultSpec, kind="phone_crash"), "at", "at", FINITE),
    ("FaultSpec", partial(FaultSpec, kind="network_degradation", until=5.0), "factor", "factor", FINITE),
    ("FaultSpec", partial(FaultSpec, kind="message_loss", factor=0.5), "until", "until", MAY_BE_INF),
    ("FaultSpec", partial(FaultSpec, kind="phone_crash"), "until", "until", FINITE),
    ("TransportSpec", TransportSpec, "deadline_s", "deadline_s", FINITE),
    ("TransportSpec", TransportSpec, "loss_prob", "transport.loss_prob", FINITE),
    ("TransportSpec", TransportSpec, "max_attempts", "transport.max_attempts", INTEGER),
    ("ScenarioSpec", partial(ScenarioSpec, name="s", tenants=[TenantSpec(name="t")]), "seed", "seed", INTEGER),
    *(
        ("ScenarioSpec", partial(ScenarioSpec, name="s", tenants=[TenantSpec(name="t")]), field, field, INTEGER)
        for field in ("extra_high_phones", "extra_low_phones")
    ),
    *(
        ("GradeRequirement", partial(GradeRequirement, "High", 4, bundles=4), field, field, INTEGER)
        for field in ("bundles", "n_phones", "n_benchmark")
    ),
    ("GradeRequirement", partial(GradeRequirement, "High", 4, bundles=4), "device_cpus", "device_cpus", FINITE),
    *(
        ("TaskSpec", partial(TaskSpec, name="t", grades=[GradeRequirement("High", 4, bundles=4)]), field, field, kind)
        for field, kind in (("deadline_s", FINITE), ("dataset_seed", INTEGER))
    ),
    ("build_scenario", partial(build_scenario, "lossy_uplink"), "scale", "scale", INTEGER),
    ("RandomStreams", RandomStreams, "seed", "seed", INTEGER),
    # transport
    ("ChannelWindow", partial(ChannelWindow, kind="loss", at=0.0, until=5.0), "at", "at", FINITE),
    ("ChannelWindow", partial(ChannelWindow, kind="loss", at=0.0, until=5.0), "until", "until", MAY_BE_INF),
    ("ChannelWindow", partial(ChannelWindow, kind="loss", at=0.0, until=5.0), "prob", "prob", FINITE),
    *(
        ("ChannelModel", ChannelModel, field, field, FINITE)
        for field in ("latency_s", "jitter_s", "loss_prob", "dup_prob", "retry_base_s", "retry_cap_s")
    ),
    ("ChannelModel", ChannelModel, "max_attempts", "max_attempts", INTEGER),
    # strategies, triggers, discretisation and curves
    ("RealTimeAccumulatedStrategy", lambda thresholds: RealTimeAccumulatedStrategy([thresholds]), "thresholds",
     "thresholds", INTEGER),
    ("RealTimeAccumulatedStrategy", RealTimeAccumulatedStrategy, "failure_prob", "failure_prob", FINITE),
    ("TimePoint", partial(TimePoint, time=1.0, count=3), "time", "time", FINITE),
    ("TimePoint", partial(TimePoint, 1.0), "count", "count", INTEGER),
    ("TimePoint", partial(TimePoint, 1.0, 3), "failure_prob", "failure_prob", FINITE),
    ("TimePoint", partial(TimePoint, 1.0, 3), "discard_count", "discard_count", INTEGER),
    *(
        ("TimeIntervalStrategy", partial(TimeIntervalStrategy, sin_plus_one(), 60.0), field, field, kind)
        for field, kind in (("failure_prob", FINITE), ("discard_per_tick", INTEGER))
    ),
    ("SampleThresholdTrigger", SampleThresholdTrigger, "threshold_samples", "threshold_samples", INTEGER),
    ("ScheduledTrigger", partial(ScheduledTrigger, max_rounds=3), "period_s", "period_s", FINITE),
    ("ScheduledTrigger", partial(ScheduledTrigger, 1.0), "max_rounds", "max_rounds", INTEGER),
    *(
        ("choose_tick_width", partial(choose_tick_width, sin_plus_one(), **args), field, field, kind)
        for field, kind, args in (
            ("interval_seconds", FINITE, {"total_messages": 100, "capacity_per_second": 700.0}),
            ("total_messages", INTEGER, {"interval_seconds": 60.0, "capacity_per_second": 700.0}),
            ("capacity_per_second", FINITE, {"interval_seconds": 60.0, "total_messages": 100}),
        )
    ),
    ("discretize_curve", partial(discretize_curve, sin_plus_one(), 60.0, 100, 700.0), "tick_width", "tick_width",
     FINITE),
    ("TrafficCurve", lambda domain: TrafficCurve(np.exp, (0.0, domain)), "domain", "domain", FINITE),
    ("TrafficCurve.to_actual_time", sin_plus_one().to_actual_time, "interval_seconds", "interval_seconds", FINITE),
    ("gaussian_pdf", gaussian_pdf, "sigma", "sigma", FINITE),
    ("right_tailed_normal", right_tailed_normal, "sigma", "sigma", FINITE),
    ("exponential_curve", exponential_curve, "base", "base", FINITE),
    # cost models and baselines
    ("LogicalCostModel", lambda alpha: LogicalCostModel(alpha={"High": alpha}), "alpha", "alpha['High']", FINITE),
    *(
        ("LogicalCostModel", LogicalCostModel, field, field, FINITE)
        for field in (
            "actor_startup", "runner_setup", "download_bandwidth_bps", "download_latency", "flow_reference_work"
        )
    ),
    *(
        (
            "PhysicalCostModel",
            lambda **grade_value: PhysicalCostModel(**{k: {"High": v} for k, v in grade_value.items()}),
            field,
            f"{field}['High']",
            FINITE,
        )
        for field in ("beta", "framework_startup")
    ),
    *(
        ("PhysicalCostModel", PhysicalCostModel, field, field, FINITE)
        for field in ("stage_window", "msp_control_latency", "flow_reference_work")
    ),
    ("FedScaleLikeSimulator", FedScaleLikeSimulator, "total_cores", "total_cores", INTEGER),
    ("FedScaleLikeSimulator", FedScaleLikeSimulator, "client_train_s", "client_train_s", FINITE),
    ("FedScaleLikeSimulator.round_time", FedScaleLikeSimulator().round_time, "n_devices", "n_devices", INTEGER),
    ("FederatedScopeLikeSimulator", FederatedScopeLikeSimulator, "instance_cores", "instance_cores", INTEGER),
    ("FederatedScopeLikeSimulator.round_time", FederatedScopeLikeSimulator().round_time, "n_devices", "n_devices",
     INTEGER),
    ("run_fig8_scalability", _fig8, "total_cores", "total_cores", INTEGER),
    ("run_fig8_scalability", lambda scales: _fig8(scales=(10, scales)), "scales", "scales", INTEGER),
    # phones, plans and the platform
    ("PhoneSpec", _phone_spec, "cpu_cores", "cpu_cores", INTEGER),
    *(
        ("PhoneSpec", _phone_spec, field, field, FINITE)
        for field in ("cpu_freq_ghz", "memory_gb", "battery_mah", "nominal_voltage_mv", "idle_current_ma")
    ),
    ("build_fleet", partial(build_fleet, n_low=1, prefix="X"), "n_high", "n_high", INTEGER),
    ("build_fleet", partial(build_fleet, 1, prefix="X"), "n_low", "n_low", INTEGER),
    ("BatteryModel", partial(BatteryModel, nominal_voltage_mv=3850.0, rng=None), "capacity_mah", "capacity_mah",
     FINITE),
    ("BatteryModel", partial(BatteryModel, 4800.0, rng=None), "nominal_voltage_mv", "nominal_voltage_mv", FINITE),
    ("TrainingApk", TrainingApk, "size_bytes", "size_bytes", INTEGER),
    ("MobileServicePlatform", partial(MobileServicePlatform, Simulator(), None, [], RandomStreams(0)), "availability",
     "availability", FINITE),
    ("PhoneMgr", partial(PhoneMgr, Simulator(), None, [], PhysicalCostModel(), RandomStreams(0), set()),
     "poll_interval", "poll_interval", FINITE),
    ("PhoneAssignment", partial(_plan, PhoneAssignment), "n_phones", "'High' plan: n_phones", INTEGER),
    ("GradeExecutionPlan", partial(_plan, GradeExecutionPlan), "n_actors", "'High' plan: n_actors", INTEGER),
    ("PlatformConfig", PlatformConfig, "msp_availability", "msp_availability", FINITE),
    ("ResourceManager.scale_up",
     partial(ResourceManager(K8sCluster([]), [], ResourceBundle()).scale_up, NodeSpec(20, 30)), "count", "count",
     INTEGER),
    # behaviour models and resources
    *(
        ("NetworkProfile", partial(NetworkProfile, name="n", bandwidth_bps=1.0, latency_s=0.1, failure_prob=0.1),
         field, field, FINITE)
        for field in ("bandwidth_bps", "latency_s", "failure_prob")
    ),
    *(("DiurnalAvailability", DiurnalAvailability, field, field, FINITE)
      for field in ("night_peak", "evening_peak", "base_level")),
    *(("ResourceBundle", ResourceBundle, field, field, FINITE) for field in ("cpus", "memory_gb", "gpus")),
    *(
        ("NodeSpec", partial(NodeSpec, cpus=20, memory_gb=30), field, field, FINITE)
        for field in ("cpus", "memory_gb", "gpus")
    ),
    # allocation
    *(
        ("GradeAllocationParams", _grade_params, field, field, INTEGER)
        for field in ("n_devices", "n_benchmark", "bundles", "n_phones", "units_per_device")
    ),
    *(("GradeAllocationParams", _grade_params, field, field, FINITE) for field in ("alpha", "beta", "lam")),
    ("fixed_ratio_allocation", partial(fixed_ratio_allocation, AllocationProblem([_grade_params()])),
     "logical_fraction", "logical_fraction", FINITE),
    # data and models
    ("label_skew_device_biases", partial(label_skew_device_biases, 10), "positive_fraction", "positive_fraction",
     FINITE),
    ("label_skew_device_biases", partial(label_skew_device_biases, 10), "spread", "spread", FINITE),
    *(
        ("assign_delay_profiles", partial(assign_delay_profiles, {"d0": 0.1}, **args), field, field, FINITE)
        for field, args in (("sigma", {"max_delay": 60.0, "seed": 0}), ("max_delay", {"sigma": 1.0, "seed": 0}))
    ),
    *(("SyntheticAvazu", SyntheticAvazu, field, field, INTEGER) for field in ("n_devices", "records_per_device")),
    ("SyntheticAvazu", SyntheticAvazu, "base_ctr", "base_ctr", FINITE),
    ("HashingEncoder", partial(HashingEncoder, fields=["a"]), "dim", "dim", INTEGER),
    ("LogisticRegressionModel", partial(LogisticRegressionModel, backend=SERVER_BACKEND), "feature_dim",
     "feature_dim", INTEGER),
    ("ModelUpdate", partial(ModelUpdate, "d0", 1, np.zeros(2), 0.0), "n_samples", "n_samples", INTEGER),
]


@pytest.mark.parametrize(
    ("build", "field", "name", "value"),
    [
        pytest.param(build, field, name, value, id=f"{label}-{field}-{value!r}")
        for label, build, field, name, values in CASES
        for value in values
    ],
)
def test_a_bad_number_fails_at_construction_naming_its_field(build, field, name, value):
    with pytest.raises(ValueError) as caught:
        build(**{field: value})
    message = str(caught.value)
    assert message.startswith(f"{name} must be "), message
    assert message.endswith(f", got {value!r}"), message


# ----------------------------------------------------------------------
# the helpers themselves
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("check", "good", "bad"),
    [
        (check_count, [1, np.int64(7)], [0, -1, 1.0, 2.5, True, "1", None, NAN]),
        (check_non_negative_int, [0, 3, np.int64(7)], [-1, 1.0, True, "1", NAN]),
        (check_positive, [1e-9, 3, np.float64(2.5)], [0, -1.0, NAN, INF, True, "1"]),
        (check_finite, [-1.0, 0, 5], [NAN, INF, -INF, False, "1"]),
        (check_non_negative, [0, 0.0, 5], [-1e-9, NAN, INF, True, "0"]),
        (check_probability, [0, 0.5, 1, np.float64(1.0)], [-0.1, 1.1, NAN, INF, True, "0.5"]),
        (check_end, [-1.0, 0, 5, INF, -INF], [NAN, True, "5", None]),
    ],
)
def test_each_helper_returns_the_value_or_names_the_field(check, good, bad):
    for value in good:
        assert check("x", value) == value
    for value in bad:
        with pytest.raises(ValueError, match=rf"^x must be .*, got {re.escape(repr(value))}$"):
            check("x", value)


def test_is_number_is_a_real_that_is_not_a_bool():
    assert [is_number(v) for v in (1, 2.5, NAN, INF, np.float64(1), np.int32(3))] == [True] * 6
    assert [is_number(v) for v in (True, False, "1", None, [1], 1j)] == [False] * 6
