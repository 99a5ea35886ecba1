"""Bench: the scenario engine driving a many-tenant day end to end.

The scenario engine is the substrate every future workload plugs into, so
its end-to-end cost — deferred submissions, fault events, concurrent
tasks, KPI extraction — is what this sweep prices.  It builds a synthetic
grid scenario (a dozen tenants, mixed arrival processes and dispatch
strategies, a fault plan) and replays it at 2k→20k total simulated
devices (~24 task submissions, ~20 of them resident at once at the
biggest point).

``measure_scenario_ci`` exposes what CI protects: total scenario
throughput (simulated devices per wall second, calibrated against the
runner's Python speed by ``ci_gate.py``) and repeat-run report identity.
"""

import time

from repro import GradeRequirement
from repro.observability.tracing import Tracer
from repro.scenarios import (
    AlarmRule,
    ArrivalSpec,
    DispatchSpec,
    FaultSpec,
    PopulationSpec,
    ScenarioRunner,
    ScenarioSpec,
    SLASpec,
    TenantSpec,
    TransportSpec,
    run_scenario,
)

try:
    from conftest import full_scale
except ImportError:  # pragma: no cover - direct module use from ci_gate
    def full_scale() -> bool:
        return False

#: Total-device sweep for the __main__ report.
SWEEP = (2_000, 5_000, 10_000, 20_000)
CI_TENANTS = 12


def build_grid_scenario(
    n_tenants: int = CI_TENANTS,
    total_devices: int = 10_000,
    seed: int = 0,
    with_alarms: bool = False,
) -> ScenarioSpec:
    """A synthetic many-tenant scenario sized to ``total_devices``.

    Tenants alternate grade, arrival process (periodic / poisson / trace)
    and dispatch recipe (direct / realtime / interval); two of them run
    numeric FL at small feature dims, the rest are time-only.  Each tenant
    submits two tasks inside a 20-minute window, and the fault plan adds a
    network-degradation window plus a phone crash/recovery pair.

    ``with_alarms`` arms the live observability loop on top: a handful of
    platform-wide alarm rules, one scoped queue-wait watch per tenant,
    and wildcard SLAs — the configuration the alarm-overhead gate prices.
    """
    if n_tenants < 2:
        raise ValueError("the grid scenario needs at least 2 tenants")
    # One small fixed-size numeric tenant keeps the ML path covered; the
    # scaled load is time-only (the numeric kernels are timed by the perf
    # ledger's diurnal_mixed workload).
    per_task = max(1, total_devices // (2 * (n_tenants - 1)))
    tenants = []
    for i in range(n_tenants):
        grade = "High" if i % 2 == 0 else "Low"
        if i % 3 == 0:
            arrival = ArrivalSpec(kind="periodic", count=2, period_s=600.0, offset_s=7.0 * i)
        elif i % 3 == 1:
            arrival = ArrivalSpec(kind="poisson", count=2, rate_per_hour=12.0, offset_s=11.0 * i)
        else:
            arrival = ArrivalSpec(kind="trace", times=[13.0 * i, 500.0 + 13.0 * i])
        if i % 4 == 0:
            dispatch = DispatchSpec(kind="interval", interval_s=120.0)
        elif i % 4 == 1:
            dispatch = DispatchSpec(kind="realtime", thresholds=[25, 100])
        else:
            dispatch = DispatchSpec(kind="direct")
        numeric = i == n_tenants - 1
        tenants.append(
            TenantSpec(
                name=f"tenant-{i:02d}",
                priority=(i * 3) % 10,
                rounds=2,
                numeric=numeric,
                feature_dim=32,
                records_per_device=6,
                grades=[
                    GradeRequirement(
                        grade=grade,
                        n_devices=48 if numeric else per_task,
                        bundles=min(24, max(4, per_task // 40)),
                        n_phones=1 if i % 5 == 0 else 0,
                    )
                ],
                arrival=arrival,
                dispatch=dispatch,
            )
        )
    alarms: list[AlarmRule] = []
    slas: list[SLASpec] = []
    if with_alarms:
        alarms = [
            # Guaranteed to transition (any running task trips it), so the
            # gate can assert the engine actually did live work.
            AlarmRule(name="busy", signal="running_tasks", warn=1.0, clear=0.0),
            AlarmRule(name="deep-queue", signal="queue_depth", warn=6.0,
                      critical=12.0, clear=2.0, min_hold_s=5.0),
            AlarmRule(name="slow-waits", signal="queue_wait_p95", warn=300.0, clear=120.0),
            AlarmRule(name="lossy-rounds", signal="dropout_loss_rate_mean", warn=0.3),
        ]
        alarms.extend(
            AlarmRule(name=f"qw-{t.name}", signal="queue_wait_p95", warn=600.0,
                      tenant=t.name)
            for t in tenants
        )
        slas = [
            SLASpec(metric="queue_wait_p95", limit=1e6),
            SLASpec(metric="dropout_loss_rate", limit=1.0),
        ]
    return ScenarioSpec(
        name="bench_grid",
        description=f"{n_tenants}-tenant synthetic grid at {total_devices} devices",
        seed=seed,
        horizon_s=1200.0,
        population=PopulationSpec(dropout_prob=0.02),
        tenants=tenants,
        faults=[
            FaultSpec(kind="network_degradation", at=200.0, until=700.0, factor=0.5),
            FaultSpec(kind="phone_crash", at=150.0, until=1000.0, grade="High", count=2),
        ],
        alarms=alarms,
        slas=slas,
    )


def scenario_run(total_devices: int, n_tenants: int = CI_TENANTS) -> dict:
    """Replay the grid scenario once; returns wall time and the report."""
    spec = build_grid_scenario(n_tenants=n_tenants, total_devices=total_devices)
    wall_start = time.perf_counter()
    report = run_scenario(spec)
    wall = time.perf_counter() - wall_start
    return {"wall": wall, "report": report}


def measure_scenario_ci(total_devices: int = 10_000, n_tenants: int = CI_TENANTS) -> dict:
    """The CI point: ``n_tenants`` tenants end-to-end at ``total_devices``.

    ``devices_per_sec`` (best of two trials, which absorbs one-off warmup
    noise) is the gated throughput, calibrated by the gate; ``identical``
    must hold — both trials produce the same report.
    """
    trials = [scenario_run(total_devices, n_tenants=n_tenants) for _ in range(2)]
    report = trials[0]["report"]
    wall = min(trial["wall"] for trial in trials)
    return {
        "n_tenants": n_tenants,
        "total_devices": report.total_devices,
        "total_tasks": report.total_tasks,
        "finished_at": report.finished_at,
        "wall_s": wall,
        "devices_per_sec": report.total_devices / wall,
        "identical": report.to_json() == trials[1]["report"].to_json(),
    }


def measure_alarm_overhead(total_devices: int = 10_000, n_tenants: int = CI_TENANTS) -> dict:
    """Live-alarm cost: the alarmed grid vs. the plain grid.

    The engine evaluates rules per *monitor* event (tasks and rounds),
    never per device, so the alarmed replay must stay within a few
    percent of the plain one — ``alarm_overhead_ratio`` (plain wall /
    alarmed wall) is gated at 0.95 by ``ci_gate.py``.  Runner throughput
    drifts ±10% over multi-second stretches — the same order as the
    overhead being priced — so a single comparison (or a min-of-N per
    variant) flakes.  Instead the two variants run interleaved for six
    pairs and the gate reads the *best* pair ratio: "in at least one
    back-to-back pairing the alarmed replay was within 5% of the plain
    one".  Under the measured noise that holds essentially always when
    the true overhead is small, while a per-device evaluation regression
    (the failure mode this gate exists for) slows *every* alarmed run
    severalfold and fails every pair.  ``alarm_events`` proves the run
    wasn't vacuous: the armed rules really transitioned.
    """

    def one_run(with_alarms: bool):
        spec = build_grid_scenario(
            n_tenants=n_tenants, total_devices=total_devices, with_alarms=with_alarms
        )
        wall_start = time.perf_counter()
        report = run_scenario(spec)
        return time.perf_counter() - wall_start, report

    one_run(True)  # warmup: imports, allocator growth, cache fill
    best = None
    alarmed_report = None
    for _ in range(6):
        plain_wall, _plain_report = one_run(False)
        alarmed_wall, alarmed_report = one_run(True)
        pair = {
            "wall_plain_s": plain_wall,
            "wall_alarmed_s": alarmed_wall,
            "alarm_overhead_ratio": plain_wall / alarmed_wall,
        }
        if best is None or pair["alarm_overhead_ratio"] > best["alarm_overhead_ratio"]:
            best = pair
    return {
        "n_tenants": n_tenants,
        "total_devices": alarmed_report.total_devices,
        **best,
        "alarm_events": sum(alarmed_report.alarm_events.values()),
        "armed_rules": len(alarmed_report.alarms),
    }


def measure_transport_overhead(
    total_devices: int = 10_000, n_tenants: int = CI_TENANTS
) -> dict:
    """Pass-through transport cost: gated ingestion vs. the plain grid.

    A ``TransportSpec`` with only a (never-binding) round deadline arms
    the ingestion gate on every tenant without any channel impairment —
    the configuration every lossless-but-deadline-bound deployment runs.
    The gate's fast path is one vectorized deadline compare per block,
    so the gated replay must stay within a few percent of the plain one:
    ``transport_overhead_ratio`` (plain wall / gated wall) is gated at
    0.95 by ``ci_gate.py``, interleaved-best-of-6 exactly like the
    alarm-overhead gate (see :func:`measure_alarm_overhead` for why).
    ``identical`` re-proves the lossless differential property at the
    gate's scale: the gated report must be byte-identical to the plain
    one.
    """

    def one_run(with_transport: bool):
        spec = build_grid_scenario(n_tenants=n_tenants, total_devices=total_devices)
        if with_transport:
            spec.transport = TransportSpec(deadline_s=1e6)
        wall_start = time.perf_counter()
        report = run_scenario(spec)
        return time.perf_counter() - wall_start, report

    one_run(True)  # warmup: imports, allocator growth, cache fill
    best = None
    plain_report = gated_report = None
    for _ in range(6):
        plain_wall, plain_report = one_run(False)
        gated_wall, gated_report = one_run(True)
        pair = {
            "wall_plain_s": plain_wall,
            "wall_transport_s": gated_wall,
            "transport_overhead_ratio": plain_wall / gated_wall,
        }
        if best is None or pair["transport_overhead_ratio"] > best["transport_overhead_ratio"]:
            best = pair
    return {
        "n_tenants": n_tenants,
        "total_devices": gated_report.total_devices,
        **best,
        "identical": plain_report.to_json() == gated_report.to_json(),
    }


def measure_tracing_overhead(
    total_devices: int = 10_000, n_tenants: int = CI_TENANTS
) -> dict:
    """Span-recording cost: the traced grid vs. the plain grid.

    An armed :class:`Tracer` appends plain tuples at a handful of
    per-round / per-outcome instrumentation points; plan rounds are
    captured as O(1) block references and everything expensive (wave
    derivation, span assembly, export) happens *after* the run.  The
    traced replay must therefore stay within a few percent of the plain
    one: ``tracing_overhead_ratio`` (plain wall / traced wall) is gated
    at 0.95 by ``ci_gate.py``, interleaved-best-of-6 exactly like the
    alarm-overhead gate (see :func:`measure_alarm_overhead` for why).
    ``identical`` re-proves the recording never touches simulation
    state: the traced report must be byte-identical to the plain one.
    ``trace_spans`` (assembled once, outside the timed region) proves
    the run wasn't vacuous — the tracer really captured the grid.
    """

    def one_run(traced: bool):
        spec = build_grid_scenario(n_tenants=n_tenants, total_devices=total_devices)
        tracer = Tracer() if traced else None
        runner = ScenarioRunner(spec, tracer=tracer)
        wall_start = time.perf_counter()
        report = runner.run()
        return time.perf_counter() - wall_start, report, runner

    one_run(True)  # warmup: imports, allocator growth, cache fill
    best = None
    plain_report = traced_report = None
    traced_runner = None
    for _ in range(6):
        plain_wall, plain_report, _ = one_run(False)
        traced_wall, traced_report, traced_runner = one_run(True)
        pair = {
            "wall_plain_s": plain_wall,
            "wall_traced_s": traced_wall,
            "tracing_overhead_ratio": plain_wall / traced_wall,
        }
        if best is None or pair["tracing_overhead_ratio"] > best["tracing_overhead_ratio"]:
            best = pair
    trace = traced_runner.trace()
    return {
        "n_tenants": n_tenants,
        "total_devices": traced_report.total_devices,
        **best,
        "trace_spans": len(trace),
        "identical": plain_report.to_json() == traced_report.to_json(),
    }


def measure_lossy_grid(total_devices: int = 10_000, n_tenants: int = CI_TENANTS) -> dict:
    """The grid replayed through a lossy channel (reported, not gated).

    1% loss + 0.5% duplication, capped-exponential retries and a 60 s
    per-round deadline — the lossy variant of the CI grid.  Reports the
    transport KPI totals, the retry pressure per simulated second, and
    overall round completeness.
    """
    spec = build_grid_scenario(n_tenants=n_tenants, total_devices=total_devices)
    spec.transport = TransportSpec(
        latency_s=1.0,
        jitter_s=0.5,
        loss_prob=0.01,
        dup_prob=0.005,
        retry_base_s=2.0,
        retry_cap_s=15.0,
        max_attempts=4,
        deadline_s=60.0,
    )
    wall_start = time.perf_counter()
    report = run_scenario(spec)
    wall = time.perf_counter() - wall_start
    kpis = list(report.tenants.values())
    retries = sum(k.transport_retries for k in kpis)
    expected = sum(k.updates_expected for k in kpis)
    aggregated = sum(k.updates_aggregated for k in kpis)
    return {
        "n_tenants": n_tenants,
        "total_devices": report.total_devices,
        "wall_s": wall,
        "retries": retries,
        "retries_per_sim_s": retries / report.finished_at if report.finished_at else 0.0,
        "duplicate_drops": sum(k.transport_duplicates for k in kpis),
        "late_drops": sum(k.transport_late_drops for k in kpis),
        "abandoned": sum(k.transport_abandoned for k in kpis),
        "round_completeness": aggregated / expected if expected else 1.0,
    }


def main() -> None:
    from repro.experiments.render import format_table

    sweep = SWEEP if full_scale() else SWEEP[:3]
    rows = []
    for total in sweep:
        result = measure_scenario_ci(total)
        rows.append(
            (
                total,
                result["total_tasks"],
                round(result["finished_at"], 1),
                round(result["wall_s"], 2),
                int(result["devices_per_sec"]),
                result["identical"],
            )
        )
    print(
        format_table(
            f"Scenario engine: {CI_TENANTS}-tenant grid (end-to-end)",
            ["devices", "tasks", "sim end (s)", "wall (s)", "dev/s", "identical"],
            rows,
        )
    )
    overhead = measure_alarm_overhead(sweep[-1])
    print(
        f"live-alarm overhead @ {sweep[-1]} devices: ratio "
        f"{overhead['alarm_overhead_ratio']:.3f} plain/alarmed "
        f"({overhead['armed_rules']} rules, "
        f"{overhead['alarm_events']} observability events)"
    )
    transport = measure_transport_overhead(sweep[-1])
    print(
        f"transport-gate overhead @ {sweep[-1]} devices: ratio "
        f"{transport['transport_overhead_ratio']:.3f} plain/gated "
        f"(identical={transport['identical']})"
    )
    tracing = measure_tracing_overhead(sweep[-1])
    print(
        f"tracing overhead @ {sweep[-1]} devices: ratio "
        f"{tracing['tracing_overhead_ratio']:.3f} plain/traced "
        f"({tracing['trace_spans']} spans, identical={tracing['identical']})"
    )
    lossy = measure_lossy_grid(sweep[-1])
    print(
        f"lossy grid @ {sweep[-1]} devices: {lossy['retries']} retries "
        f"({lossy['retries_per_sim_s']:.2f}/sim-s), "
        f"{lossy['duplicate_drops']} duplicates dropped, "
        f"{lossy['late_drops']} late, {lossy['abandoned']} abandoned, "
        f"round completeness {lossy['round_completeness']:.3f} "
        f"in {lossy['wall_s']:.2f}s wall"
    )


if __name__ == "__main__":
    main()
