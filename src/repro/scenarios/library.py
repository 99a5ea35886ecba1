"""Built-in scenario library.

Six named scenarios covering the workload shapes the paper motivates:
a timezone-mixed production day (`diurnal_multitenant`), a sudden burst
against a steady background (`flash_crowd`), an unreliable fleet with
churn and bad networks (`flaky_fleet`), a long repetitive cadence
with a straggler window (`steady_state_soak`), the burst replayed on
an undersized cluster with live alarms driving the autoscaler
(`autoscale_flash_crowd`), and a lossy device→cloud uplink with
retry/backoff, duplication, an outage window, and deadline-closed
rounds (`lossy_uplink`).

Every builder takes ``scale`` — the approximate total number of simulated
devices summed over every task submission — and a master ``seed``; device
counts and resource requests derive proportionally, so the same scenario
runs as a smoke test at ``scale=200`` and as a stress run at
``scale=20000``.  ``python -m repro.scenarios run <name> --scale N``
invokes these through :data:`SCENARIOS`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.checks import check_count
from repro.observability import AlarmRule, AutoscaleSpec, SLASpec
from repro.scenarios.spec import (
    ArrivalSpec,
    DispatchSpec,
    FaultSpec,
    PopulationSpec,
    ScenarioSpec,
    TenantSpec,
    TransportSpec,
)
from repro.scheduler.task import GradeRequirement


def _unit(scale: int, reference: int) -> int:
    """Scale factor: devices-per-unit against the builder's reference sum."""
    check_count("scale", scale)
    return max(1, round(scale / reference))


def diurnal_multitenant(scale: int = 2000, seed: int = 0) -> ScenarioSpec:
    """A production day: four tenants across timezones share the platform.

    The Fig. 3 picture as a workload: a large Asia-evening retraining
    tenant spreading uploads over the population's diurnal curve, a
    European experimentation stream with Poisson arrivals, a two-shot
    Americas nightly job, and a small benchmarking tenant keeping physical
    phones measured throughout.
    """
    u = _unit(scale, 100)
    return ScenarioSpec(
        name="diurnal_multitenant",
        description="timezone-mixed production day: 4 tenants, diurnal uploads, contention",
        seed=seed,
        horizon_s=3600.0,
        population=PopulationSpec(),  # the paper's Asia-heavy default mix
        tenants=[
            TenantSpec(
                name="asia-prod",
                priority=8,
                rounds=2,
                grades=[
                    GradeRequirement(grade="High", n_devices=8 * u, bundles=min(60, max(8, 2 * u))),
                    GradeRequirement(
                        grade="Low", n_devices=4 * u, bundles=min(40, max(6, u)), n_phones=1
                    ),
                ],
                arrival=ArrivalSpec(kind="periodic", count=3, period_s=900.0, offset_s=60.0),
                dispatch=DispatchSpec(kind="interval", interval_s=300.0),
            ),
            TenantSpec(
                name="eu-experiment",
                priority=3,
                rounds=2,
                numeric=True,
                feature_dim=64,
                records_per_device=8,
                grades=[GradeRequirement(grade="High", n_devices=6 * u, bundles=min(48, max(6, 2 * u)))],
                arrival=ArrivalSpec(kind="poisson", count=4, rate_per_hour=8.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[20, 50]),
            ),
            TenantSpec(
                name="amer-nightly",
                priority=5,
                grades=[
                    GradeRequirement(grade="Low", n_devices=10 * u, bundles=min(50, max(8, 2 * u))),
                    GradeRequirement(grade="High", n_devices=4 * u, bundles=min(20, max(4, u))),
                ],
                arrival=ArrivalSpec(kind="trace", times=[120.0, 1800.0]),
                dispatch=DispatchSpec(kind="realtime", thresholds=[50]),
            ),
            TenantSpec(
                name="mobile-bench",
                priority=1,
                grades=[
                    GradeRequirement("High", n_devices=4 * u, bundles=min(20, max(4, u)), n_phones=1, n_benchmark=1)
                ],
                arrival=ArrivalSpec(kind="periodic", count=3, period_s=1100.0, offset_s=300.0),
            ),
        ],
    )


def flash_crowd(scale: int = 2000, seed: int = 0) -> ScenarioSpec:
    """A burst of small tasks slams a steadily loaded platform.

    Ten experiment tasks arrive within twenty seconds while a periodic
    production tenant holds its cadence, and the burst coincides with a
    network-tier degradation window (capacity down to 20%) — the
    fluctuating-access-load failure mode §I warns about.
    """
    u = _unit(scale, 88)
    return ScenarioSpec(
        name="flash_crowd",
        description="10-task burst + capacity degradation over a steady background",
        seed=seed,
        horizon_s=1800.0,
        population=PopulationSpec(),
        tenants=[
            TenantSpec(
                name="steady",
                priority=6,
                rounds=2,
                grades=[GradeRequirement(grade="Low", n_devices=8 * u, bundles=min(40, max(8, 2 * u)))],
                arrival=ArrivalSpec(kind="periodic", count=6, period_s=240.0, offset_s=30.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[25]),
            ),
            TenantSpec(
                name="crowd",
                priority=2,
                grades=[GradeRequirement(grade="High", n_devices=4 * u, bundles=min(16, max(4, u)))],
                arrival=ArrivalSpec(
                    kind="trace", times=[300.0 + 2.0 * i for i in range(10)]
                ),
                dispatch=DispatchSpec(kind="realtime", thresholds=[1]),
            ),
        ],
        faults=[
            FaultSpec(kind="network_degradation", at=300.0, until=900.0, factor=0.2),
        ],
    )


def flaky_fleet(scale: int = 1000, seed: int = 0) -> ScenarioSpec:
    """An unreliable deployment: churn, bad networks, dropout.

    The population skews toward cellular links with a flight-mode sliver,
    phones crash and recover in two waves, and mid-run the network tier
    halves its capacity — the scenario every robustness claim should be
    tested against.
    """
    u = _unit(scale, 54)
    return ScenarioSpec(
        name="flaky_fleet",
        description="phone churn + degraded cellular networks + dropout",
        seed=seed,
        horizon_s=2400.0,
        population=PopulationSpec(
            network_mix=[["wifi", 0.35], ["lte", 0.30], ["gprs", 0.25], ["flight-mode", 0.10]],
            dropout_prob=0.10,
        ),
        tenants=[
            TenantSpec(
                name="train",
                priority=7,
                rounds=2,
                numeric=True,
                feature_dim=64,
                records_per_device=8,
                grades=[
                    GradeRequirement(
                        grade="High",
                        n_devices=6 * u,
                        bundles=min(48, max(6, 2 * u)),
                        n_phones=2,
                        n_benchmark=1,
                    )
                ],
                arrival=ArrivalSpec(kind="poisson", count=5, rate_per_hour=10.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[1]),
            ),
            TenantSpec(
                name="telemetry",
                priority=2,
                grades=[GradeRequirement(grade="Low", n_devices=4 * u, bundles=min(20, max(4, u)), n_phones=1)],
                arrival=ArrivalSpec(kind="periodic", count=6, period_s=360.0, offset_s=45.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[10]),
            ),
        ],
        faults=[
            FaultSpec(kind="phone_crash", at=120.0, until=1500.0, grade="High", count=3),
            FaultSpec(kind="phone_crash", at=400.0, until=2000.0, grade="Low", count=2),
            FaultSpec(kind="network_degradation", at=600.0, until=1200.0, factor=0.5),
        ],
    )


def steady_state_soak(scale: int = 2000, seed: int = 0) -> ScenarioSpec:
    """A long repetitive cadence with a straggler window in the middle.

    One tenant retrains on a fixed period for the whole horizon while a
    low-priority probe stream samples queueing behaviour; a mid-run
    straggler window slows every device of the soak tenant 2.5x, so the
    report shows the cadence absorbing (or not absorbing) the slowdown.
    """
    u = _unit(scale, 96)
    return ScenarioSpec(
        name="steady_state_soak",
        description="fixed retraining cadence + probe stream + straggler window",
        seed=seed,
        horizon_s=4200.0,
        population=PopulationSpec(),
        tenants=[
            TenantSpec(
                name="soak",
                priority=5,
                rounds=2,
                grades=[
                    GradeRequirement(grade="High", n_devices=5 * u, bundles=min(50, max(5, 2 * u))),
                    GradeRequirement(grade="Low", n_devices=3 * u, bundles=min(30, max(4, u))),
                ],
                arrival=ArrivalSpec(kind="periodic", count=10, period_s=420.0, offset_s=0.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[40]),
            ),
            TenantSpec(
                name="probe",
                priority=1,
                numeric=True,
                feature_dim=32,
                records_per_device=6,
                grades=[GradeRequirement(grade="High", n_devices=2 * u, bundles=min(12, max(2, u)))],
                arrival=ArrivalSpec(kind="poisson", count=4, rate_per_hour=6.0),
            ),
        ],
        faults=[
            FaultSpec(kind="straggler", at=1260.0, until=2520.0, factor=2.5, tenant="soak"),
        ],
    )


def autoscale_flash_crowd(scale: int = 1000, seed: int = 0) -> ScenarioSpec:
    """The flash crowd replayed on an undersized cluster with remediation.

    A single logical node hosts a steady background when ten burst tasks
    land inside twenty seconds.  A ``queue_depth`` alarm (warn at 3
    queued tasks, critical at 6, hysteresis clear at 1, 10 s hold) raises
    as the burst queues; the autoscaler answers each raise with two extra
    nodes (up to six, 60 s cooldown) and drains them once the alarm
    clears.  The SLAs assert the remediation worked: every task completes
    and queue waits stay bounded.
    """
    u = _unit(scale, 48)
    return ScenarioSpec(
        name="autoscale_flash_crowd",
        description="task burst on an undersized cluster; queue alarm drives the autoscaler",
        seed=seed,
        horizon_s=1800.0,
        cluster_nodes=1,
        population=PopulationSpec(),
        tenants=[
            TenantSpec(
                name="steady",
                priority=6,
                grades=[GradeRequirement(grade="Low", n_devices=4 * u, bundles=min(20, max(6, u)))],
                arrival=ArrivalSpec(kind="periodic", count=4, period_s=300.0, offset_s=30.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[20]),
            ),
            TenantSpec(
                name="crowd",
                priority=2,
                grades=[GradeRequirement(grade="High", n_devices=4 * u, bundles=min(16, max(8, 2 * u)))],
                arrival=ArrivalSpec(kind="trace", times=[240.0 + 2.0 * i for i in range(10)]),
                dispatch=DispatchSpec(kind="realtime", thresholds=[1]),
                slas=[SLASpec(metric="completion_rate", limit=0.99, direction="min")],
            ),
        ],
        alarms=[
            AlarmRule(
                name="queue-pressure",
                signal="queue_depth",
                warn=3.0,
                critical=6.0,
                clear=1.0,
                min_hold_s=10.0,
            ),
        ],
        autoscale=AutoscaleSpec(
            alarm="queue-pressure", step=2, max_extra_nodes=6, cooldown_s=60.0
        ),
        slas=[
            SLASpec(metric="queue_wait_p95", limit=1500.0),
            SLASpec(metric="failed_tasks", limit=0.0),
        ],
    )


def lossy_uplink(scale: int = 1000, seed: int = 0) -> ScenarioSpec:
    """A fault-tolerant uplink run: loss, duplication, and an outage.

    One numeric federated tenant uploads through a lossy channel (2 s
    latency, capped-exponential retry, per-round 900 s deadline) while a
    background telemetry stream shares the platform.  Mid-run faults
    raise the loss rate to 15%, inject 5% duplicates, and black out the
    ingestion service for a minute.  A ``retry_rate_mean`` alarm watches
    the retry storm live, and the SLAs assert the transport degraded
    gracefully: ≥85% of expected updates still fold into each round and
    the per-update retry cost stays bounded.
    """
    u = _unit(scale, 60)
    return ScenarioSpec(
        name="lossy_uplink",
        description="lossy uplink with retries, duplication, outage, deadline-closed rounds",
        seed=seed,
        horizon_s=3600.0,
        population=PopulationSpec(),
        transport=TransportSpec(
            latency_s=2.0,
            jitter_s=1.0,
            retry_base_s=4.0,
            retry_cap_s=60.0,
            max_attempts=5,
            deadline_s=900.0,
        ),
        tenants=[
            TenantSpec(
                name="uplink",
                priority=6,
                rounds=2,
                numeric=True,
                feature_dim=32,
                records_per_device=6,
                grades=[
                    GradeRequirement(grade="High", n_devices=6 * u, bundles=min(48, max(6, 2 * u))),
                    GradeRequirement(grade="Low", n_devices=3 * u, bundles=min(24, max(4, u))),
                ],
                arrival=ArrivalSpec(kind="periodic", count=3, period_s=1000.0, offset_s=60.0),
                dispatch=DispatchSpec(kind="interval", interval_s=300.0),
                slas=[
                    SLASpec(metric="round_completeness", limit=0.85, direction="min"),
                    SLASpec(metric="retry_rate", limit=1.0),
                ],
            ),
            TenantSpec(
                name="telemetry",
                priority=2,
                grades=[GradeRequirement(grade="Low", n_devices=3 * u, bundles=min(16, max(4, u)))],
                arrival=ArrivalSpec(kind="periodic", count=4, period_s=800.0, offset_s=200.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[10]),
            ),
        ],
        faults=[
            FaultSpec(kind="message_loss", at=400.0, until=2600.0, factor=0.15),
            FaultSpec(kind="message_duplication", at=600.0, until=2200.0, factor=0.05),
            FaultSpec(kind="service_outage", at=1200.0, until=1260.0),
        ],
        alarms=[
            AlarmRule(
                name="retry-burst",
                signal="retry_rate_mean",
                warn=0.05,
                clear=0.02,
                window_s=600.0,
            ),
        ],
    )


#: The named library the CLI and benchmarks draw from.
SCENARIOS: dict[str, Callable[..., ScenarioSpec]] = {
    "diurnal_multitenant": diurnal_multitenant,
    "flash_crowd": flash_crowd,
    "flaky_fleet": flaky_fleet,
    "steady_state_soak": steady_state_soak,
    "autoscale_flash_crowd": autoscale_flash_crowd,
    "lossy_uplink": lossy_uplink,
}


def build_scenario(name: str, scale: int | None = None, seed: int = 0) -> ScenarioSpec:
    """Instantiate a library scenario by name."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    builder = SCENARIOS[name]
    if scale is None:
        return builder(seed=seed)
    return builder(scale=scale, seed=seed)
