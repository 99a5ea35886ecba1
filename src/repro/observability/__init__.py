"""Live observability: streaming alarms, SLA assertions, autoscaling.

The platform's :class:`~repro.cloud.monitor.Monitor` records every task,
round and fault event with a per-kind index; this package watches that
stream *while the simulation runs*:

* :class:`AlarmRule` / :class:`AlarmEngine` — threshold alarms with
  warn/critical severities, a hysteresis clear band and a minimum hold
  time, evaluated from kernel events and logged back onto the monitor as
  ``alarm_raised`` / ``alarm_cleared`` events;
* :class:`SLASpec` — declarative service-level objectives (e.g.
  ``queue_wait_p95 <= 150``) checked live (``sla_violation`` events) and
  against the final per-tenant KPI report;
* :class:`AutoscaleSpec` / :class:`AutoscalePolicy` — alarms driving
  :meth:`ResourceManager.scale_up` / :meth:`~ResourceManager.scale_down`
  plus a scheduler prod, closing the remediation loop inside the run.

Everything lives on the simulated clock, so alarm histories, SLA
verdicts and scaling actions are a deterministic function of spec and
seed.

PR 10 adds the *post-hoc* observability layer:

* :class:`Tracer` / :func:`assemble_trace` — deterministic per-task span
  trees (submit → queue → dispatch → device waves → transport → ingest →
  fold) with Chrome/Perfetto and JSONL exporters
  (:mod:`repro.observability.export`);
* :class:`RunProfiler` — real wall-clock accounting per simulator
  subsystem, behind ``python -m repro.scenarios run --profile``.
"""

from repro.observability.alarms import (
    GAUGE_SIGNALS,
    SERIES_SIGNALS,
    SEVERITIES,
    AlarmEngine,
    AlarmRule,
    signal_exists,
)
from repro.observability.autoscale import AutoscalePolicy, AutoscaleSpec
from repro.observability.export import (
    chrome_trace,
    spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.observability.profiler import PROFILE_POINTS, HotspotRow, RunProfiler
from repro.observability.sla import (
    SLASpec,
    attach_live_slas,
    evaluate_slas,
    known_metrics,
    metric_value,
)
from repro.observability.tracing import (
    SPAN_KINDS,
    Span,
    Trace,
    Tracer,
    assemble_trace,
)

__all__ = [
    "GAUGE_SIGNALS",
    "PROFILE_POINTS",
    "SERIES_SIGNALS",
    "SEVERITIES",
    "SPAN_KINDS",
    "AlarmEngine",
    "AlarmRule",
    "AutoscalePolicy",
    "AutoscaleSpec",
    "HotspotRow",
    "RunProfiler",
    "SLASpec",
    "Span",
    "Trace",
    "Tracer",
    "assemble_trace",
    "attach_live_slas",
    "chrome_trace",
    "evaluate_slas",
    "known_metrics",
    "metric_value",
    "signal_exists",
    "spans_jsonl",
    "write_chrome_trace",
    "write_spans_jsonl",
]
