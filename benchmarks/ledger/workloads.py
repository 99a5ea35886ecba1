"""The ledger's four named workloads and the checks their outputs must pass.

Names and shapes are fixed: later issues refer to them.  Each workload is a
:class:`~repro.scenarios.spec.ScenarioSpec` replayed through the default
production path (``ScenarioRunner(spec).run()``), chosen so that a different
set of layers dominates its wall clock (see README.md for the measured
shares and the layer -> metric -> workload table).
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy

from repro.scenarios.kpis import ScenarioReport
from repro.scenarios.library import diurnal_multitenant, flash_crowd, lossy_uplink
from repro.scenarios.spec import ArrivalSpec, GradeSpec, PopulationSpec, ScenarioSpec, TenantSpec

#: ``scale`` argument of the *timed* repeats.  Sub-second repeats, because the
#: yardstick (``reference.py``) only cancels machine drift that is slower than
#: the interval it brackets: on this box ten 20 s runs spread by 3-8% with
#: repeats this size and by 5-9% with repeats three times as long.
SCALES = {
    "diurnal_mixed": 4_000,
    "flash_crowd_flow": 25_000,
    "lossy_transport": 8_000,
    "direct_hybrid": 300_000,
}

#: ``scale`` argument of the memory repeat and of the traced run: large enough
#: that the workload, not the interpreter, sets the resident size, that fixed
#: per-task costs stop diluting the layer shares (``cloud.transport`` only
#: leads ``lossy_transport`` from ~20k up), and that a >1M-device run is on
#: the ledger.  One repeat takes 2-3 s here.
FULL_SCALES = {
    "diurnal_mixed": 15_000,
    "flash_crowd_flow": 100_000,
    "lossy_transport": 30_000,
    "direct_hybrid": 1_250_016,
}

#: The ledger of the commit that added the benchmark; its digests are the pins.
BASELINE = Path(__file__).with_name("baseline.json")

#: Workloads whose uploads cross an active (lossy) transport channel.
CHANNEL_WORKLOADS = frozenset({"lossy_transport"})


def lossy_transport(scale: int, seed: int) -> ScenarioSpec:
    """Library ``lossy_uplink`` with numeric FL off, so transport dominates."""
    spec = lossy_uplink(scale=scale, seed=seed)
    for tenant in spec.tenants:
        tenant.numeric = False
    return spec


def direct_hybrid(scale: int, seed: int) -> ScenarioSpec:
    """Time-only, direct-dispatch tenants: the columnar block path end to end."""
    u = max(1, scale // 96)
    return ScenarioSpec(
        name="direct_hybrid",
        description="direct dispatch, logical + phone tiers, columnar cloud ingest only",
        seed=seed,
        horizon_s=3600.0,
        population=PopulationSpec(dropout_prob=0.02),
        extra_high_phones=96,
        extra_low_phones=96,
        tenants=[
            TenantSpec(
                name="bulk",
                priority=5,
                rounds=2,
                grades=[
                    GradeSpec(grade="High", n_devices=5 * u, bundles=min(60, max(8, 2 * u))),
                    GradeSpec(grade="Low", n_devices=3 * u, bundles=min(40, max(6, u))),
                ],
                arrival=ArrivalSpec(kind="periodic", count=8, period_s=400.0, offset_s=30.0),
            ),
            TenantSpec(
                name="handsets",
                priority=3,
                rounds=2,
                grades=[
                    GradeSpec(
                        grade="High", n_devices=2 * u, bundles=min(20, max(4, u)), n_phones=48, n_benchmark=2
                    ),
                    GradeSpec(
                        grade="Low", n_devices=2 * u, bundles=min(20, max(4, u)), n_phones=48, n_benchmark=2
                    ),
                ],
                arrival=ArrivalSpec(kind="periodic", count=4, period_s=800.0, offset_s=100.0),
            ),
        ],
    )


_BUILDERS = {
    "diurnal_mixed": diurnal_multitenant,
    "flash_crowd_flow": flash_crowd,
    "lossy_transport": lossy_transport,
    "direct_hybrid": direct_hybrid,
}


def build_spec(workload: str, scale: int, seed: int) -> ScenarioSpec:
    """A fresh spec for ``workload``; the seed is the only random input."""
    return _BUILDERS[workload](scale=scale, seed=seed)


def report_digest(report: ScenarioReport) -> str:
    """sha256 of the report's canonical JSON (the byte-identity contract)."""
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def pinned_digests(workload: str, seed: int) -> tuple[dict[int, str], str]:
    """Report digests pinned in ``baseline.json`` by scale, or why none apply.

    Pins hold for the baseline's seed only, and only under the interpreter and
    numpy it was taken with (a different random-stream or float-formatting
    implementation is not the simulator's regression).
    """
    if not BASELINE.exists():
        return {}, "no baseline.json"
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    manifest = baseline["manifest"]
    if manifest["seed"] != seed:
        return {}, f"pins are for seed {manifest['seed']}"
    for key, here in (("python", platform.python_version()), ("numpy", numpy.__version__)):
        if manifest[key] != here:
            return {}, f"pins were taken with {key} {manifest[key]}, this is {here}"
    rows = baseline["workloads"][workload]
    return {rows[key]["scale"]: rows[key]["digest"] for key in ("timed", "full")}, ""


def sim_stats(report: ScenarioReport) -> dict[str, float]:
    """Simulated-side statistics: deterministic, must repeat exactly."""
    tenants = report.tenants.values()
    stats = {
        "sim_makespan_s": report.finished_at,
        "tasks_completed": sum(k.completed for k in tenants),
        "updates_expected": sum(k.updates_expected for k in tenants),
        "updates_aggregated": sum(k.updates_aggregated for k in tenants),
        "dropout_lost": sum(k.dropout_lost for k in tenants),
        "transport_retries": sum(k.transport_retries for k in tenants),
        "transport_duplicates": sum(k.transport_duplicates for k in tenants),
        "transport_late_drops": sum(k.transport_late_drops for k in tenants),
        "transport_abandoned": sum(k.transport_abandoned for k in tenants),
        "alarm_events": sum(report.alarm_events.values()),
    }
    accounted = (
        stats["updates_aggregated"]
        + stats["dropout_lost"]
        + stats["transport_late_drops"]
        + stats["transport_abandoned"]
    )
    # Under duplication one device-round can be counted twice (an aggregated
    # original plus a dropped or late duplicate); the surplus is reported, not
    # fixed, here (ROADMAP item 4).
    stats["transport_overcount"] = accounted - stats["updates_expected"]
    return stats


def check_report(workload: str, report: ScenarioReport) -> list[str]:
    """Why this run's output is wrong; empty when it is correct."""
    problems = []
    for name, kpis in report.tenants.items():
        if kpis.failed > 0 or kpis.completed != kpis.submitted:
            problems.append(
                f"tenant {name}: {kpis.completed}/{kpis.submitted} completed, {kpis.failed} failed"
            )
    stats = sim_stats(report)
    overcount = stats["transport_overcount"]
    if workload in CHANNEL_WORKLOADS:
        if overcount < 0 or stats["updates_aggregated"] > stats["updates_expected"]:
            problems.append(f"device balance broken on a lossy channel: {stats}")
    elif overcount != 0:
        problems.append(f"device balance broken: accounted - expected = {overcount}")
    return problems
