"""Scenario fuzzer, first slice: small random ``ScenarioSpec``s through the whole platform.

Every example runs twice.  The two reports must be byte-identical (a run is
a pure function of (spec, seed)), and every tenant must account for each
device round it dispatched: aggregated, lost to DeviceFlow dropout, late at
a round deadline, or abandoned by the channel — the balance
``benchmarks/ledger/workloads.py::check_report`` holds the ledger workloads
to.  Duplicated uploads may be counted on both sides of a deadline, hence
``>=``.  The strategy covers every dispatch kind x channel x deadline
combination, which the library scenarios do not — benchmarking phones
included, whose one-row uploads ride the same channel, gate and balance.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    ArrivalSpec,
    DispatchSpec,
    FaultSpec,
    GradeSpec,
    ScenarioRunner,
    ScenarioSpec,
    TenantSpec,
    TransportSpec,
)

dispatches = st.one_of(
    st.just(DispatchSpec(kind="direct")),
    st.builds(
        DispatchSpec,
        kind=st.just("realtime"),
        thresholds=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
        failure_prob=st.sampled_from([-1.0, 0.0, 0.3]),
    ),
    st.builds(
        DispatchSpec,
        kind=st.just("interval"),
        interval_s=st.floats(min_value=5.0, max_value=300.0),
        failure_prob=st.sampled_from([-1.0, 0.0, 0.3]),
    ),
)
deadlines = st.one_of(st.none(), st.floats(min_value=1.0, max_value=120.0))


@st.composite
def grades(draw):
    n_phones = draw(st.integers(min_value=0, max_value=2))
    return GradeSpec(
        grade=draw(st.sampled_from(["High", "Low"])),
        n_devices=draw(st.integers(min_value=1, max_value=30)),
        bundles=draw(st.integers(min_value=1, max_value=12)),
        n_phones=n_phones,
        # A benchmarking phone only where the grade has phones at all.
        n_benchmark=draw(st.integers(min_value=0, max_value=min(1, n_phones))),
    )


def tenants(name: str):
    return st.builds(
        TenantSpec,
        name=st.just(name),
        rounds=st.integers(min_value=1, max_value=2),
        numeric=st.booleans(),
        feature_dim=st.just(16),
        records_per_device=st.just(4),
        grades=grades().map(lambda grade: [grade]),
        arrival=st.lists(st.floats(min_value=0.0, max_value=90.0), min_size=1, max_size=2).map(
            lambda times: ArrivalSpec(kind="trace", times=times)
        ),
        dispatch=dispatches,
        deadline_s=deadlines,
    )


lossy_transports = st.builds(
    TransportSpec,
    latency_s=st.floats(min_value=0.0, max_value=3.0),
    jitter_s=st.floats(min_value=0.0, max_value=2.0),
    loss_prob=st.floats(min_value=0.0, max_value=0.5),
    dup_prob=st.floats(min_value=0.0, max_value=0.3),
    retry_base_s=st.floats(min_value=0.5, max_value=4.0),
    retry_cap_s=st.floats(min_value=4.0, max_value=20.0),
    max_attempts=st.integers(min_value=1, max_value=4),
    deadline_s=deadlines,
)
loss_windows = st.builds(
    FaultSpec,
    kind=st.just("message_loss"),
    at=st.floats(min_value=0.0, max_value=60.0),
    until=st.floats(min_value=61.0, max_value=400.0),
    factor=st.floats(min_value=0.05, max_value=1.0),
    tenant=st.sampled_from(["", "a"]),
)
specs = st.builds(
    ScenarioSpec,
    name=st.just("fuzz"),
    seed=st.integers(min_value=0, max_value=2**31),
    horizon_s=st.just(600.0),
    cluster_nodes=st.just(2),
    tenants=st.one_of(tenants("a").map(lambda a: [a]), st.tuples(tenants("a"), tenants("b")).map(list)),
    transport=st.one_of(st.none(), lossy_transports),
    faults=st.lists(loss_windows, max_size=1),
)


@given(spec=specs)
@settings(max_examples=25, deadline=None)
def test_runs_repeat_and_every_dispatched_device_round_is_accounted_for(spec):
    data = spec.to_dict()
    first = ScenarioRunner(ScenarioSpec.from_dict(data)).run().to_dict()
    second = ScenarioRunner(ScenarioSpec.from_dict(data)).run().to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    for name, kpis in first["tenants"].items():
        accounted = (
            kpis["updates_aggregated"]
            + kpis["dropout_lost"]
            + kpis["transport_late_drops"]
            + kpis["transport_abandoned"]
        )
        assert accounted >= kpis["updates_expected"], (name, kpis)
        assert kpis["updates_aggregated"] <= kpis["updates_expected"], (name, kpis)
