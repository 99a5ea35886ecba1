"""Two recommendation teams share one SimDC deployment — as a scenario.

The paper's motivating domain is device-cloud recommendation (CTR
prediction).  This example expresses the original hand-built two-task
campaign as a *declarative scenario spec*: a high-priority production
retraining tenant and a lower-priority experiment tenant arrive together
(trace arrivals at t=0), contend for the hybrid resource pool, and the
scenario engine replays the contention and distils per-tenant KPIs.

Things to watch in the output:

* the production tenant is scheduled first (its priority wins the greedy
  pass) and the experiment's queue-wait KPI shows it waiting for bundles;
* per-tenant DeviceFlow statistics differ: production ships updates in
  batches of 50, the experiment uses lossy real-time dispatch (dropout
  shows up as `lost` updates in the report);
* the whole campaign is one serializable dict — ``spec.to_dict()`` is a
  config file away from running the same study at another scale.

Run:  python examples/recommendation_ab_campaign.py
"""

from repro import GradeRequirement
from repro.scenarios import (
    ArrivalSpec,
    DispatchSpec,
    ScenarioSpec,
    TenantSpec,
    run_scenario,
)


def campaign_scenario(device_scale: float = 1.0, feature_dim: int = 512) -> ScenarioSpec:
    """The A/B campaign as plain data; ``device_scale`` shrinks smoke runs."""

    def n(count: int) -> int:
        return max(1, round(count * device_scale))

    return ScenarioSpec(
        name="recommendation_ab",
        description="prod CTR refresh vs. A/B ranking experiment on one deployment",
        seed=0,
        horizon_s=600.0,
        tenants=[
            TenantSpec(
                name="prod-ctr-refresh",
                priority=10,
                rounds=2,
                numeric=True,
                feature_dim=feature_dim,
                records_per_device=15,
                flow_epochs=5,
                flow_learning_rate=0.05,
                grades=[
                    GradeRequirement(
                        grade="High", n_devices=n(60), bundles=32, n_phones=3,
                        device_cpus=4, device_memory_gb=12,
                    ),
                    GradeRequirement(
                        grade="Low", n_devices=n(40), bundles=30, n_phones=3,
                        device_cpus=1, device_memory_gb=6,
                    ),
                ],
                arrival=ArrivalSpec(kind="trace", times=[0.0]),
                dispatch=DispatchSpec(kind="realtime", thresholds=[50], failure_prob=0.0),
            ),
            TenantSpec(
                name="exp-ranker-ab",
                priority=1,
                rounds=2,
                numeric=True,
                feature_dim=feature_dim,
                records_per_device=15,
                flow_epochs=5,
                flow_learning_rate=0.05,
                grades=[
                    GradeRequirement(
                        grade="High", n_devices=n(40), bundles=160, n_phones=2,
                        device_cpus=4, device_memory_gb=12,
                    ),
                ],
                arrival=ArrivalSpec(kind="trace", times=[0.0]),
                dispatch=DispatchSpec(kind="realtime", thresholds=[1], failure_prob=0.2),
            ),
        ],
    )


def main(device_scale: float = 1.0, feature_dim: int = 512) -> None:
    spec = campaign_scenario(device_scale=device_scale, feature_dim=feature_dim)
    report = run_scenario(spec)

    for line in report.summary_lines():
        print(line)
    print()
    prod = report.tenants["prod-ctr-refresh"]
    exp = report.tenants["exp-ranker-ab"]
    print(f"production queue wait: {prod.queue_wait.mean:.1f}s "
          f"(priority {spec.tenants[0].priority} enters the cluster first)")
    print(f"experiment queue wait: {exp.queue_wait.mean:.1f}s "
          "(160 bundles must free up before it fits)")
    print(f"experiment dropout losses: {exp.dropout_lost} of {exp.updates_expected} updates "
          "(lossy real-time uplink)")
    if exp.queue_wait.mean >= prod.queue_wait.mean:
        print("scheduling: production entered the cluster first, as its priority demands")


if __name__ == "__main__":
    main()
