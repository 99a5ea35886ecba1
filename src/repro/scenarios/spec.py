"""Scenario specifications: plain-data descriptions of platform workloads.

Every spec class here is a dataclass of JSON-friendly fields, so a
:class:`ScenarioSpec` round-trips through plain dicts (``to_dict`` /
``from_dict``, and therefore YAML/JSON files) without any custom serializer.  The
specs are *descriptions*; the live objects (behaviour models, dispatch
strategies, :class:`~repro.scheduler.task.TaskSpec` instances) are built
on demand by the factory methods so that every task gets fresh, unshared
strategy state and deterministic seeds.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from numbers import Integral
from typing import Any

import numpy as np

from repro.behavior import (
    FLIGHT_MODE,
    GPRS,
    LTE,
    WIFI,
    DiurnalAvailability,
    NetworkMixture,
    TimezoneMixture,
    population_traffic_curve,
)
from repro.behavior.timezone import DEFAULT_OFFSET_WEIGHTS
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
from repro.cloud.transport import ChannelModel, ChannelWindow
from repro.deviceflow.curves import TrafficCurve
from repro.deviceflow.strategy import (
    DispatchStrategy,
    RealTimeAccumulatedStrategy,
    TimeIntervalStrategy,
)
from repro.ml.operators import standard_fl_flow
from repro.observability import GAUGE_SIGNALS, SERIES_SIGNALS, AlarmRule, AutoscaleSpec, SLASpec, signal_exists
from repro.scheduler.task import GradeRequirement, TaskSpec
from repro.simkernel.random import stable_hash

#: Named network profiles a :class:`PopulationSpec` can mix.
NETWORK_PROFILES = {p.name: p for p in (WIFI, LTE, GPRS, FLIGHT_MODE)}


def _check_numbers(declared: dict, data: dict, prefix: str) -> None:
    """Raise a ``ValueError`` naming the first ``int`` / ``float`` / ``bool`` field of ``data`` holding another type."""
    for key, value in data.items():
        kind = declared[key].type  # a string: every spec module defers its annotations
        if kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{prefix}{key} must be true or false, got {value!r}")
        if kind in ("list[float]", "list[int]") and not all(map(is_number, value)):
            raise ValueError(f"{prefix}{key} must be a list of numbers, got {value!r}")
        if kind.removesuffix(" | None") in ("int", "float") and not (
            is_number(value) or (value is None and kind.endswith(" | None"))
        ):
            raise ValueError(f"{prefix}{key} must be a number, got {value!r}")


def _from_fields(cls, data: object, path: str = ""):
    """``cls(**data)`` with its nested specs built, naming a malformed entry by its path in the file.

    ``path`` locates ``data`` in the enclosing document (``tenants[0]``).
    ``data`` must be a mapping holding every field without a default; a
    field annotated with a spec class (or a list of them, see
    :data:`_NESTED`) is built from its mapping (list) the same way.  An
    unknown key's error lists the fields the class accepts, so a typo or a
    key from an older dump fails with a message that says what to fix.  A
    constructor error that opens with a field name gets the path as well
    (``tenants[0].records_per_device must be >= 1, got 0``), and so does an
    ``int`` / ``float`` field (or a list of them) holding no JSON number.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"{path or cls.__name__} must be a mapping of fields, got {data!r}")
    data = dict(data)
    declared = {f.name: f for f in fields(cls) if f.init}
    prefix = f"{path}." if path else ""
    for key, value in data.items():
        if key not in declared:
            raise ValueError(
                f"unknown scenario field {prefix + key!r}; {cls.__name__} accepts: {', '.join(declared)}"
            )
        kind = declared[key].type.removesuffix(" | None")
        if kind.startswith("list["):
            if not isinstance(value, list):
                raise ValueError(f"{prefix}{key} must be a list, got {value!r}")
            if kind[5:-1] in _NESTED:
                item = _NESTED[kind[5:-1]]
                data[key] = [_from_fields(item, v, f"{prefix}{key}[{i}]") for i, v in enumerate(value)]
        elif kind in _NESTED and not (value is None and declared[key].type.endswith(" | None")):
            data[key] = _from_fields(_NESTED[kind], value, prefix + key)
    for name, spec_field in declared.items():
        if name not in data and spec_field.default is MISSING and spec_field.default_factory is MISSING:
            raise ValueError(f"{prefix}{name} is required")
    _check_numbers(declared, data, prefix)
    try:
        return cls(**data)
    except ValueError as exc:
        if path and str(exc).split(" ", 1)[0] in declared:
            raise ValueError(f"{path}.{exc}") from None
        raise


# ----------------------------------------------------------------------
# population recipe
# ----------------------------------------------------------------------
@dataclass
class PopulationSpec:
    """Device-population recipe: who the simulated users are.

    Composes the :mod:`repro.behavior` models: a timezone mixture, a
    diurnal availability curve (in local time), a network-condition
    mixture, and a per-round dropout probability.  The aggregate upload-rate
    curve of the population doubles as the rate curve for interval-based
    DeviceFlow dispatch (:meth:`traffic_curve`).
    """

    timezone_offsets: list[list[float]] = field(
        default_factory=lambda: [[o, w] for o, w in DEFAULT_OFFSET_WEIGHTS]
    )
    night_peak: float = 2.0
    evening_peak: float = 21.0
    base_level: float = 0.05
    network_mix: list[list[Any]] = field(
        default_factory=lambda: [["wifi", 0.62], ["lte", 0.28], ["gprs", 0.07], ["flight-mode", 0.03]]
    )
    dropout_prob: float = 0.0

    def __post_init__(self) -> None:
        if not all(isinstance(pair, list | tuple) and len(pair) == 2 for pair in self.network_mix):
            raise ValueError(f"network_mix must be a list of [profile, weight] pairs, got {self.network_mix!r}")
        for name, _weight in self.network_mix:
            if name not in NETWORK_PROFILES:
                raise ValueError(f"unknown network profile {name!r}; known: {sorted(NETWORK_PROFILES)}")
        check_probability("dropout_prob", self.dropout_prob)
        # Built once, so their checks run here whether or not a tenant ever
        # derives a failure probability or a traffic curve from them.
        try:
            self._timezones = TimezoneMixture([(o, float(w)) for o, w in self.timezone_offsets])
        except ValueError as exc:
            raise ValueError(f"timezone_offsets {exc}") from None
        try:
            self._networks = NetworkMixture([(NETWORK_PROFILES[name], float(w)) for name, w in self.network_mix])
        except ValueError as exc:
            raise ValueError(f"network_mix {exc}") from None
        self._availability = DiurnalAvailability(self.night_peak, self.evening_peak, self.base_level)
        self._traffic_curve: TrafficCurve | None = None

    def upload_failure_prob(self) -> float:
        """Population-average transmission-failure probability.

        Derived from the network mixture — the physically-grounded default
        for DeviceFlow dropout, combined with the explicit
        :attr:`dropout_prob` as independent loss sources.
        """
        network = self._networks.expected_failure_prob()
        return 1.0 - (1.0 - network) * (1.0 - self.dropout_prob)

    def traffic_curve(self) -> TrafficCurve:
        """Aggregate upload-rate curve over UTC (feeds interval dispatch).

        One curve per population, built on first call and kept: every
        interval tenant's task shares it, so the AUC tables the curve
        memoises (one per window and tick count) are computed once per run.
        """
        if self._traffic_curve is None:
            self._traffic_curve = population_traffic_curve(self._timezones, self._availability)
        return self._traffic_curve


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
@dataclass
class ArrivalSpec:
    """When a tenant's task instances are submitted.

    ``kind`` selects the process:

    * ``"trace"`` — submit at the explicit ``times`` (seconds from
      scenario start), trace-driven replay of a recorded workload;
    * ``"periodic"`` — ``count`` submissions at ``offset_s + k*period_s``
      (a retraining cadence);
    * ``"poisson"`` — ``count`` submissions with i.i.d. exponential
      inter-arrival gaps at ``rate_per_hour`` (an open-loop user stream).
    """

    kind: str = "trace"
    times: list[float] = field(default_factory=list)
    count: int = 1
    period_s: float = 600.0
    offset_s: float = 0.0
    rate_per_hour: float = 6.0

    def __post_init__(self) -> None:
        if self.kind not in ("trace", "periodic", "poisson"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        if self.kind == "trace":
            if not self.times:
                raise ValueError("times must hold at least one timestamp for trace arrivals")
            if not all(0 <= t < math.inf for t in self.times):  # also false for NaN
                raise ValueError(f"times must be finite and >= 0, got {self.times!r}")
        else:
            check_count("count", self.count)
        self.offset_s = check_non_negative("offset_s", self.offset_s)
        if self.kind == "periodic":
            self.period_s = check_positive("period_s", self.period_s)
        if self.kind == "poisson":
            self.rate_per_hour = check_positive("rate_per_hour", self.rate_per_hour)

    def submission_times(self, rng: np.random.Generator) -> list[float]:
        """The sorted submission instants (seconds from scenario start).

        ``rng`` is consumed only by the Poisson process; deterministic
        kinds ignore it, so trace/periodic tenants never perturb the
        random-stream alignment of stochastic ones.
        """
        if self.kind == "trace":
            return sorted(float(t) for t in self.times)
        if self.kind == "periodic":
            return [self.offset_s + k * self.period_s for k in range(self.count)]
        gaps = rng.exponential(3600.0 / self.rate_per_hour, size=self.count)
        return (self.offset_s + np.cumsum(gaps)).tolist()


# ----------------------------------------------------------------------
# deviceflow dispatch recipe
# ----------------------------------------------------------------------
@dataclass
class DispatchSpec:
    """Declarative DeviceFlow strategy for one tenant.

    * ``"direct"`` — bypass DeviceFlow (results go straight to the cloud
      service);
    * ``"realtime"`` — threshold-sequence real-time accumulated dispatch;
    * ``"interval"`` — spread each round's uploads over the population's
      diurnal traffic curve across ``interval_s`` seconds.

    ``failure_prob`` < 0 (the default) means "derive from the population"
    via :meth:`PopulationSpec.upload_failure_prob`.
    """

    kind: str = "direct"
    thresholds: list[int] = field(default_factory=lambda: [1])
    interval_s: float = 600.0
    failure_prob: float = -1.0

    def __post_init__(self) -> None:
        if self.kind not in ("direct", "realtime", "interval"):
            raise ValueError(f"unknown dispatch kind {self.kind!r}")
        if self.kind == "interval":
            check_positive("interval_s", self.interval_s)
        if self.kind == "realtime" and not (
            self.thresholds
            and all(isinstance(t, Integral) and not isinstance(t, bool) and t >= 1 for t in self.thresholds)
        ):
            raise ValueError(f"thresholds must be a non-empty list of integers >= 1, got {self.thresholds!r}")
        if not -math.inf < self.failure_prob <= 1.0:  # also false for NaN
            raise ValueError(
                f"failure_prob must be a finite number <= 1 (< 0 derives it), got {self.failure_prob!r}"
            )

    def resolved_failure_prob(self, population: PopulationSpec) -> float:
        """The dropout probability this tenant's messages experience."""
        if self.failure_prob >= 0.0:
            return float(self.failure_prob)
        return population.upload_failure_prob()

    def build(self, population: PopulationSpec) -> DispatchStrategy | None:
        """A fresh strategy instance (strategies hold per-task state)."""
        if self.kind == "direct":
            return None
        p = self.resolved_failure_prob(population)
        if self.kind == "realtime":
            return RealTimeAccumulatedStrategy([int(t) for t in self.thresholds], failure_prob=p)
        return TimeIntervalStrategy(
            population.traffic_curve(), interval_seconds=float(self.interval_s), failure_prob=p
        )


# ----------------------------------------------------------------------
# tenants
# ----------------------------------------------------------------------
#: The former name of a tenant's grade; the benchmark ledger's workloads still import it.
GradeSpec = GradeRequirement


@dataclass
class TenantSpec:
    """One tenant: a task template plus its arrival process.

    Each submission instantiates a fresh :class:`TaskSpec` from the
    template with a deterministic ``task_id`` and ``dataset_seed``, so a
    scenario is reproducible regardless of how many other TaskSpecs the
    process created before (the global task counter is bypassed).
    """

    name: str
    grades: list[GradeRequirement] = field(default_factory=lambda: [GradeRequirement("High", 10, bundles=10)])
    arrival: ArrivalSpec = field(default_factory=lambda: ArrivalSpec(times=[0.0]))
    dispatch: DispatchSpec = field(default_factory=DispatchSpec)
    priority: int = 0
    rounds: int = 1
    numeric: bool = False
    feature_dim: int = 64
    records_per_device: int = 8
    flow_epochs: int = 1
    flow_learning_rate: float = 0.05
    #: Per-round aggregation deadline (seconds from round start); late
    #: uploads are dropped and the round closes on the partial fold.
    #: ``None`` inherits the scenario transport's default deadline.
    deadline_s: float | None = None
    #: Tenant-scoped SLAs (their ``tenant`` field is pinned to this
    #: tenant's name regardless of what the spec says).
    slas: list[SLASpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        check_count("flow_epochs", self.flow_epochs)
        check_positive("flow_learning_rate", self.flow_learning_rate)
        self._task(name=self.name, task_id=self.name)  # the task's own checks, at construction

    @property
    def devices_per_task(self) -> int:
        return sum(g.n_devices for g in self.grades)

    def _task(self, **identity: Any) -> TaskSpec:
        """This tenant's task template, with ``identity`` (name, ids, seed, strategy) filled in."""
        return TaskSpec(
            grades=list(self.grades),
            rounds=self.rounds,
            flow=standard_fl_flow(epochs=self.flow_epochs, learning_rate=self.flow_learning_rate),
            priority=self.priority,
            numeric=self.numeric,
            feature_dim=self.feature_dim,
            deadline_s=self.deadline_s,
            records_per_device=self.records_per_device,
            **identity,
        )

    def build_task(
        self, scenario: str, index: int, seed: int, population: PopulationSpec
    ) -> TaskSpec:
        """Instantiate submission ``index`` of this tenant's stream."""
        return self._task(
            name=f"{self.name}-{index:03d}",
            task_id=f"{scenario}.{self.name}.{index:04d}",
            deviceflow_strategy=self.dispatch.build(population),
            dataset_seed=(seed * 1_000_003 + index * 9_176 + stable_hash(self.name)[0]) % (2**31),
        )


# ----------------------------------------------------------------------
# fault plan
# ----------------------------------------------------------------------
@dataclass
class FaultSpec:
    """One timed fault (and its optional recovery) in a scenario.

    ``kind`` selects the failure mode:

    * ``"phone_crash"`` — at ``at``, up to ``count`` *idle* phones of
      ``grade`` drop out of the fleet (they stop being reservable and the
      scheduler sees reduced capacity); at ``until`` they recover.
      Phones mid-task are not yanked — device churn takes idle handsets,
      matching the "participate only while idle" eligibility model.
    * ``"network_degradation"`` — between ``at`` and ``until``,
      DeviceFlow transmission capacity is scaled by ``factor`` (< 1).
    * ``"straggler"`` — tenants matching ``tenant`` (or all tenants when
      empty) whose tasks are *submitted* inside ``[at, until)`` run with
      per-device durations scaled by ``factor`` (> 1): slow devices, both
      tiers.
    * ``"message_loss"`` / ``"message_duplication"`` — between ``at`` and
      ``until``, device→cloud uploads are lost / duplicated with
      probability ``factor`` (in (0, 1]); lost uploads trigger the
      channel's retry policy.  ``tenant`` scopes the window (empty =
      every tenant).
    * ``"service_outage"`` — between ``at`` and ``until`` the cloud
      ingestion service rejects every upload; devices back off and retry
      past the window (or abandon after max attempts).

    ``at`` is a finite time.  A crash's recovery and a degradation's end
    are kernel events, so their ``until`` is finite too; a straggler or
    transport window may stay open for the rest of the run (``until=inf``).
    """

    #: Fault kinds routed to the transport channel as impairment windows.
    TRANSPORT_KINDS = ("message_loss", "message_duplication", "service_outage")
    KINDS = ("phone_crash", "network_degradation", "straggler") + TRANSPORT_KINDS

    kind: str
    at: float = 0.0
    until: float | None = None
    grade: str = "High"
    count: int = 1
    factor: float = 1.0
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        self.at = check_non_negative("at", check_finite("at", self.at))  # NaN and inf first: a finite number, then >= 0
        if self.until is not None:
            self.until = check_end("until", self.until)  # first: a number to compare; a Monitor event carries it
            if self.until <= self.at:
                raise ValueError(f"fault recovery must come after the fault: until={self.until!r} <= at={self.at!r}")
            if self.kind in ("phone_crash", "network_degradation"):
                check_finite("until", self.until)  # the kernel schedules the recovery
        if isinstance(self.count, bool) or not isinstance(self.count, Integral):
            raise ValueError(f"count must be an integer, got {self.count!r}")
        if self.kind == "phone_crash" and self.count < 1:
            raise ValueError(f"phone_crash needs count >= 1, got {self.count!r}")
        self.factor = check_finite("factor", self.factor)  # first: the per-kind ranges below compare it
        if self.kind == "straggler":
            if self.until is None:
                raise ValueError(f"straggler injection needs a window end, got until={self.until!r}")
            if self.factor <= 1.0:
                raise ValueError(f"straggler slowdown factor must be > 1, got {self.factor!r}")
        elif self.kind != "phone_crash" and self.until is None:
            raise ValueError(f"{self.kind} needs an end time, got until={self.until!r}")
        if self.kind == "network_degradation" and not 0.0 < self.factor <= 1.0:
            raise ValueError(f"degradation factor must be in (0, 1], got {self.factor!r}")
        if self.kind in ("message_loss", "message_duplication") and not 0.0 < self.factor <= 1.0:
            raise ValueError(f"{self.kind} probability (factor) must be in (0, 1], got {self.factor!r}")

    def covers_submission(self, tenant: str, time: float) -> bool:
        """Whether a straggler window applies to a tenant submission."""
        if self.kind != "straggler":
            return False
        if self.tenant and self.tenant != tenant:
            return False
        assert self.until is not None
        return self.at <= time < self.until


# ----------------------------------------------------------------------
# device→cloud transport
# ----------------------------------------------------------------------
@dataclass
class TransportSpec:
    """Device→cloud channel behaviour for the whole scenario.

    Every field but ``deadline_s`` is the
    :class:`~repro.cloud.transport.ChannelModel` field of that name (base
    latency and jitter, loss / duplication probabilities, retry policy),
    checked by building the model.  Scheduled impairments come from the
    fault plan (``message_loss`` / ``message_duplication`` /
    ``service_outage`` kinds) and stack on top of the base rates.

    ``deadline_s`` is the default per-round aggregation deadline for
    tenants that do not set their own: rounds close at the deadline with
    the partial fold and late uploads count as dropped.
    """

    latency_s: float = 0.0
    jitter_s: float = 0.0
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    retry_base_s: float = 2.0
    retry_cap_s: float = 60.0
    max_attempts: int = 4
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        try:
            self.channel([])
        except ValueError as exc:  # the channel's fields are this spec's
            raise ValueError(f"transport.{exc}") from None
        if self.deadline_s is not None:
            check_finite("deadline_s", self.deadline_s)  # NaN and inf first: a finite number, then one > 0
            check_positive("deadline_s", self.deadline_s)

    def channel(self, windows: list[ChannelWindow]) -> ChannelModel:
        """The channel this spec describes (every field but ``deadline_s``), carrying ``windows``."""
        params = asdict(self)
        del params["deadline_s"]
        return ChannelModel(**params, windows=windows)


# ----------------------------------------------------------------------
# the scenario
# ----------------------------------------------------------------------
@dataclass
class ScenarioSpec:
    """A complete multi-tenant platform run, as plain data.

    Attributes
    ----------
    name / description:
        Identification (the name prefixes every generated task id).
    seed:
        Master seed: platform streams, arrival draws, dataset seeds.  A
        non-negative integer.
    horizon_s:
        Nominal arrival-window length (documentation + CLI display; the
        run itself ends when every task finishes).
    max_time:
        Hard simulated-time guard for the run.
    tenants / population / faults:
        The workload, who generates it, and what goes wrong.
    transport:
        Optional device→cloud :class:`TransportSpec` (lossy channel,
        retries, default round deadline).  ``None`` keeps the ideal
        lossless exactly-once uplink — unless the fault plan schedules
        transport windows, which imply a default channel.
    cluster_nodes:
        Logical-tier size, in 20-CPU/30-GB nodes (the paper's shape).
    deviceflow_capacity:
        Dispatcher transmission capacity (messages/second).
    extra_high_phones / extra_low_phones:
        Synthetic MSP phones added on top of the default 30-phone fleet
        for scenarios with heavy physical-tier demand.
    alarms:
        Live :class:`~repro.observability.AlarmRule` watches evaluated
        during the run (``alarm_raised`` / ``alarm_cleared`` monitor
        events, summarized in the report).
    slas:
        Scenario-wide service-level objectives; an SLA with an empty
        ``tenant`` applies to every tenant.  Tenants carry their own
        ``slas`` list too.  All are checked live (where a streaming
        signal exists) and against the final report.
    autoscale:
        Optional :class:`~repro.observability.AutoscaleSpec` bound to one
        of ``alarms`` — raise/clear transitions of that rule drive
        cluster scale-up/scale-down during the run.
    """

    name: str
    tenants: list[TenantSpec]
    description: str = ""
    seed: int = 0
    horizon_s: float = 3600.0
    max_time: float = 1e8
    population: PopulationSpec = field(default_factory=PopulationSpec)
    faults: list[FaultSpec] = field(default_factory=list)
    cluster_nodes: int = 10
    deviceflow_capacity: float = 700.0
    extra_high_phones: int = 0
    extra_low_phones: int = 0
    transport: TransportSpec | None = None
    alarms: list[AlarmRule] = field(default_factory=list)
    slas: list[SLASpec] = field(default_factory=list)
    autoscale: AutoscaleSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        for name in ("seed", "extra_high_phones", "extra_low_phones"):
            check_non_negative_int(name, getattr(self, name))
        for name in ("horizon_s", "max_time", "deviceflow_capacity"):
            check_positive(name, getattr(self, name))
        check_count("cluster_nodes", self.cluster_nodes)
        alarm_names = [a.name for a in self.alarms]
        if len(set(alarm_names)) != len(alarm_names):
            raise ValueError(f"duplicate alarm rule names: {alarm_names}")
        for i, rule in enumerate(self.alarms):
            if rule.tenant and rule.tenant not in names:
                raise ValueError(f"alarm {rule.name!r} watches unknown tenant {rule.tenant!r}")
            # A scenario feeds only the built-in signals: any other name never fires.
            if not signal_exists(rule.signal):
                raise ValueError(
                    f"alarms[{i}].signal {rule.signal!r} is not a platform signal: use one of "
                    f"{', '.join(GAUGE_SIGNALS + SERIES_SIGNALS)}, a series optionally suffixed _mean/_p50/_p95/_max"
                )
        for sla in self.slas:
            if sla.tenant and sla.tenant not in names:
                raise ValueError(f"SLA on {sla.metric!r} names unknown tenant {sla.tenant!r}")
        if self.autoscale is not None and self.autoscale.alarm not in alarm_names:
            raise ValueError(f"autoscale policy references unknown alarm {self.autoscale.alarm!r}")

    def all_slas(self) -> list[SLASpec]:
        """Scenario-wide SLAs plus every tenant's own, tenant pinned."""
        merged = list(self.slas)
        for tenant in self.tenants:
            merged.extend(replace(sla, tenant=tenant.name) for sla in tenant.slas)
        return merged

    @property
    def total_devices(self) -> int:
        """Simulated devices across every tenant submission."""
        total = 0
        for tenant in self.tenants:
            n_tasks = len(tenant.arrival.times) if tenant.arrival.kind == "trace" else tenant.arrival.count
            total += tenant.devices_per_task * n_tasks
        return total

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> ScenarioSpec:
        """Build from plain data; a malformed entry is a ``ValueError`` naming its path."""
        return _from_fields(cls, data)


#: The spec classes a scenario file nests, by the name their fields are annotated with.
_NESTED = {
    spec.__name__: spec
    for spec in (
        PopulationSpec, ArrivalSpec, DispatchSpec, GradeRequirement, TenantSpec, FaultSpec, TransportSpec,
        AlarmRule, SLASpec, AutoscaleSpec,
    )
}
