"""Declarative multi-tenant scenario engine.

SimDC's pitch is a platform that mirrors *production* device-cloud
populations — timezones, networks, user actions, dropout (§V, Fig. 3).
This package turns that pitch into a first-class subsystem: a scenario is
a plain-data description of "a day of traffic on a real deployment" —

* a **device-population recipe** (timezone / network / availability /
  dropout mixtures drawn from :mod:`repro.behavior`),
* a set of **tenants**, each a :class:`~repro.scheduler.task.TaskSpec`
  template plus an arrival process (Poisson, deterministic cadence, or a
  trace of timestamps) and a declarative DeviceFlow dispatch recipe, and
* a **fault plan** (timed phone crashes/recoveries, network-tier
  degradation windows, straggler injection, plus transport-level
  message-loss / duplication / service-outage windows), and
* an optional **transport recipe** (:class:`TenantSpec` deadlines and a
  :class:`TransportSpec` lossy device→cloud channel with retry/backoff),

and the :class:`ScenarioRunner` replays the whole thing on one simulated
clock — submissions scheduled as simulator events, faults applied through
the kernel — then distils the run into a :class:`ScenarioReport` of
per-tenant KPIs.

Specs serialize to/from plain dicts, so YAML/JSON configs load trivially;
``python -m repro.scenarios run <name>`` runs the built-in library.
"""

from repro.observability import AlarmRule, AutoscaleSpec, SLASpec
from repro.scenarios.engine import ScenarioRunner, run_scenario
from repro.scenarios.kpis import ScenarioReport, StatSummary, TenantKPIs, build_report
from repro.scenarios.library import SCENARIOS, build_scenario
from repro.scenarios.spec import (
    ArrivalSpec,
    DispatchSpec,
    FaultSpec,
    GradeSpec,
    PopulationSpec,
    ScenarioSpec,
    TenantSpec,
    TransportSpec,
)

__all__ = [
    "SCENARIOS",
    "AlarmRule",
    "ArrivalSpec",
    "AutoscaleSpec",
    "DispatchSpec",
    "FaultSpec",
    "GradeSpec",
    "PopulationSpec",
    "SLASpec",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "StatSummary",
    "TenantKPIs",
    "TenantSpec",
    "TransportSpec",
    "build_report",
    "build_scenario",
    "run_scenario",
]
