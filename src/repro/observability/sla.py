"""SLA assertions: declarative service-level objectives for scenarios.

Modeled on production SLO practice (explicit p95/p99 latency targets with
signal-rich alerting): an :class:`SLASpec` binds one KPI metric to a
bound, per tenant or platform-wide.  SLAs are checked twice:

* **live** — metrics with a streaming counterpart (queue-wait
  percentiles, dropout loss rate, queue depth) are compiled onto the
  :class:`~repro.observability.alarms.AlarmEngine` as pure-threshold
  watches that log ``sla_violation`` / ``sla_recovered`` monitor events
  the moment the simulation crosses the bound, and
* **final** — every SLA is evaluated against the finished run's
  per-tenant KPIs; the verdicts are first-class rows in the scenario
  report and drive the CLI's ``--sla`` exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checks import check_finite, check_positive
from repro.observability.alarms import AlarmEngine, AlarmRule, signal_exists

#: Final-report metrics: ``<kpi>_<stat>`` over the StatSummary KPIs ...
_STAT_KPIS = ("queue_wait", "makespan", "turnaround", "round_duration")
_STATS = ("mean", "p50", "p95", "max")
#: ... plus derived scalar metrics.
_SCALAR_METRICS = (
    "dropout_loss_rate",
    "completion_rate",
    "failed_tasks",
    "final_accuracy",
    "retry_rate",
    "round_completeness",
)

#: Metrics that also exist as streaming signals for the live watch.
#: Live transport metrics read the bare series name (windowed mean);
#: their final-report counterparts normalize by ``updates_expected``, so
#: the two denominators differ slightly on partially-failed tenants.
_LIVE_METRICS = {
    "queue_depth": "queue_depth",
    "queue_wait_mean": "queue_wait_mean",
    "queue_wait_p50": "queue_wait_p50",
    "queue_wait_p95": "queue_wait_p95",
    "queue_wait_max": "queue_wait_max",
    "dropout_loss_rate": "dropout_loss_rate",
    "retry_rate": "retry_rate",
    "round_completeness": "round_completeness",
}


def known_metrics() -> list[str]:
    """Every metric name an SLA may reference."""
    names = [f"{kpi}_{stat}" for kpi in _STAT_KPIS for stat in _STATS]
    names.extend(_SCALAR_METRICS)
    names.append("queue_depth")
    return sorted(names)


@dataclass
class SLASpec:
    """One service-level objective: ``metric`` bounded by ``limit``.

    Attributes
    ----------
    metric:
        A KPI name from :func:`known_metrics` — e.g. ``queue_wait_p95``,
        ``dropout_loss_rate``, ``completion_rate``.
    limit:
        The bound.  With ``direction="max"`` the SLA holds while
        ``value <= limit``; ``"min"`` requires ``value >= limit``
        (completion rates, accuracies).
    tenant:
        Apply to one tenant only; empty applies to every tenant.
    live:
        Also watch the metric during the run where a streaming signal
        exists (``queue_depth`` and live-only watches never appear in
        the final report check when the KPI is absent).
    window_s:
        Sliding window for the live watch's series statistics.
    """

    metric: str
    limit: float
    tenant: str = ""
    direction: str = "max"
    live: bool = True
    window_s: float = 300.0

    def __post_init__(self) -> None:
        if self.direction not in ("max", "min"):
            raise ValueError(f"unknown SLA direction {self.direction!r}")
        if self.metric not in known_metrics():
            raise ValueError(
                f"unknown SLA metric {self.metric!r}; known: {known_metrics()}"
            )
        self.limit = check_finite("limit", self.limit)
        self.window_s = check_positive("window_s", self.window_s)

    def holds(self, value: float | None) -> bool:
        """Whether ``value`` satisfies the objective (no data = holds)."""
        if value is None:
            return True
        if self.direction == "max":
            return value <= self.limit
        return value >= self.limit

    def live_rule(self) -> AlarmRule | None:
        """The streaming watch for this SLA, or ``None`` when not live.

        A pure threshold (clear == warn): SLA events mark bound
        crossings, operator alarms carry the hysteresis.
        """
        signal = _LIVE_METRICS.get(self.metric)
        if not self.live or signal is None:
            return None
        assert signal_exists(signal)
        bound = "<=" if self.direction == "max" else ">="
        return AlarmRule(
            name=f"sla:{self.tenant or '*'}:{self.metric}{bound}{self.limit:g}",
            signal=signal,
            warn=self.limit,
            direction="above" if self.direction == "max" else "below",
            window_s=self.window_s,
            tenant=self.tenant,
        )


def attach_live_slas(engine: AlarmEngine, slas: list[SLASpec]) -> int:
    """Arm every live-watchable SLA on ``engine``; returns the count."""
    armed = 0
    for sla in slas:
        rule = sla.live_rule()
        if rule is not None:
            engine.add_rule(rule, raised_kind="sla_violation", cleared_kind="sla_recovered")
            armed += 1
    return armed


def metric_value(kpis, metric: str) -> float | None:
    """Resolve a final-report metric from one tenant's KPIs.

    ``kpis`` is a :class:`~repro.scenarios.kpis.TenantKPIs` (duck-typed
    to keep this package independent of the scenarios layer).  Returns
    ``None`` when the metric has no data for this tenant (live-only
    metrics such as ``queue_depth``, or accuracy on time-only tenants).
    """
    for kpi in _STAT_KPIS:
        prefix = kpi + "_"
        if metric.startswith(prefix) and metric[len(prefix):] in _STATS:
            summary = getattr(kpis, kpi)
            if summary.n == 0:
                return None
            return float(getattr(summary, metric[len(prefix):]))
    if metric == "dropout_loss_rate":
        if kpis.updates_expected <= 0:
            return None
        return kpis.dropout_lost / kpis.updates_expected
    if metric == "completion_rate":
        if kpis.submitted <= 0:
            return None
        return kpis.completed / kpis.submitted
    if metric == "failed_tasks":
        return float(kpis.failed)
    if metric == "final_accuracy":
        return kpis.final_accuracy
    if metric == "retry_rate":
        if kpis.updates_expected <= 0:
            return None
        return kpis.transport_retries / kpis.updates_expected
    if metric == "round_completeness":
        if kpis.updates_expected <= 0:
            return None
        return kpis.updates_aggregated / kpis.updates_expected
    return None


def evaluate_slas(slas: list[SLASpec], tenants: dict) -> list[dict]:
    """Check every SLA against the per-tenant KPIs of a finished run.

    Returns deterministic plain-data rows sorted by (tenant, metric):
    ``{"tenant", "metric", "limit", "direction", "value", "ok"}``.
    An SLA with an empty ``tenant`` expands to one row per tenant.
    """
    rows = []
    for sla in slas:
        names = [sla.tenant] if sla.tenant else sorted(tenants)
        for name in names:
            kpis = tenants.get(name)
            if kpis is None:
                continue
            value = metric_value(kpis, sla.metric)
            rows.append(
                {
                    "tenant": name,
                    "metric": sla.metric,
                    "limit": sla.limit,
                    "direction": sla.direction,
                    "value": value,
                    "ok": sla.holds(value),
                }
            )
    rows.sort(key=lambda r: (r["tenant"], r["metric"], r["direction"], r["limit"]))
    return rows
