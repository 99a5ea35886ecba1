"""Streaming threshold alarms over the platform monitor.

The :class:`~repro.cloud.monitor.Monitor` already indexes every platform
event as it arrives; this module turns that stream into a live alerting
surface.  An :class:`AlarmRule` is plain data (dict round-trip like every
scenario spec): a KPI *signal*, warn/critical thresholds, a hysteresis
clear level and a minimum hold duration.  The :class:`AlarmEngine`
subscribes to the monitor, maintains the streaming signals the rules read
(queue depth, queue-wait percentiles over a sliding window, per-round
dropout loss, ...) and emits ``alarm_raised`` / ``alarm_cleared`` events
back onto the same monitor, so alarms live on the simulated clock and are
exactly as deterministic as the run itself: the same spec and seed produce
byte-identical alarm histories.

Evaluation is event-driven: rules are (re)checked when a signal actually
changes, plus at scheduled hold-expiry instants, never on a wall-clock
poller.  That keeps the overhead proportional to the *monitor* event rate
(tasks and rounds, not devices) and keeps ``run_until_idle`` terminating:
every engine-scheduled kernel event is one-shot.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

from repro.checks import check_finite, check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.monitor import Monitor, MonitorEvent

#: Gauge signals the engine maintains from the task lifecycle events.
GAUGE_SIGNALS = ("queue_depth", "running_tasks")

#: Sliding-window sample series (suffix one of ``_mean/_p50/_p95/_max``;
#: the bare name reads as the windowed mean).
SERIES_SIGNALS = (
    "queue_wait",
    "dropout_loss_rate",
    "round_updates",
    "retry_rate",
    "duplicate_drop_rate",
    "round_completeness",
)

_STAT_SUFFIXES = ("_mean", "_p50", "_p95", "_max")

#: Alarm severity levels, least to most severe.
SEVERITIES = ("ok", "warning", "critical")


def signal_exists(signal: str) -> bool:
    """Whether ``signal`` names a built-in gauge or series statistic."""
    if signal in GAUGE_SIGNALS or signal in SERIES_SIGNALS:
        return True
    for suffix in _STAT_SUFFIXES:
        if signal.endswith(suffix) and signal[: -len(suffix)] in SERIES_SIGNALS:
            return True
    return False


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method) of a
    non-empty list, without the array-conversion overhead."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lo = int(position)
    frac = position - lo
    if frac == 0.0:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


def _base_signal(signal: str) -> str:
    """The underlying signal a rule reads: gauges and raw series names
    pass through; series statistics drop their ``_mean``-style suffix."""
    if signal in GAUGE_SIGNALS:
        return signal
    for suffix in _STAT_SUFFIXES:
        if signal.endswith(suffix):
            return signal[: -len(suffix)]
    return signal


@dataclass
class AlarmRule:
    """One threshold alarm: a KPI signal watched with hysteresis.

    Attributes
    ----------
    name:
        Unique rule id (appears in ``alarm_raised`` / ``alarm_cleared``
        events and the scenario report).
    signal:
        The streaming signal to watch: a gauge (``queue_depth``,
        ``running_tasks``), a windowed series statistic
        (``queue_wait_p95``, ``dropout_loss_rate_mean``, ...), or a
        custom signal fed via :meth:`AlarmEngine.ingest_sample`.
    warn / critical:
        Severity thresholds.  With ``direction="above"`` the alarm enters
        ``warning`` at ``value >= warn`` and ``critical`` at
        ``value >= critical``; ``"below"`` mirrors the comparisons.
    clear:
        Hysteresis level: once raised, the alarm only clears at
        ``value <= clear`` (``"above"``; mirrored for ``"below"``).
        Values strictly inside the ``(clear, warn)`` band hold the
        current state — no raise/clear chatter.  Defaults to ``warn``.
    window_s:
        Sliding-window length for series statistics.
    min_hold_s:
        A state change must hold continuously this long before it takes
        effect (the engine schedules the confirmation on the kernel).
    tenant:
        Restrict the signal to one tenant's events (scenario runs wire a
        task-to-tenant scope); empty watches the whole platform.
    """

    name: str
    signal: str
    warn: float
    critical: float | None = None
    clear: float | None = None
    direction: str = "above"
    window_s: float = 300.0
    min_hold_s: float = 0.0
    tenant: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alarm rule name must be non-empty")
        if not self.signal:
            raise ValueError(f"alarm rule {self.name!r} needs a signal")
        if self.direction not in ("above", "below"):
            raise ValueError(f"unknown alarm direction {self.direction!r}")
        for name in ("warn", "critical", "clear"):
            if getattr(self, name) is not None:
                check_finite(name, getattr(self, name))
        check_positive("window_s", self.window_s)
        check_non_negative("min_hold_s", self.min_hold_s)
        sign = 1.0 if self.direction == "above" else -1.0
        if self.critical is not None and sign * (self.critical - self.warn) < 0:
            raise ValueError(
                f"alarm {self.name!r}: critical must be at least as severe as warn"
            )
        if self.clear is not None and sign * (self.warn - self.clear) < 0:
            raise ValueError(
                f"alarm {self.name!r}: clear must sit on the healthy side of warn"
            )

    @property
    def clear_level(self) -> float:
        """The effective hysteresis clear threshold."""
        return self.warn if self.clear is None else self.clear

    def target_state(self, value: float) -> str | None:
        """The state ``value`` argues for, or ``None`` inside the band.

        ``None`` means "hold whatever state the alarm is in" — the value
        sits strictly between the clear level and the warn threshold.
        """
        sign = 1.0 if self.direction == "above" else -1.0
        if self.critical is not None and sign * (value - self.critical) >= 0:
            return "critical"
        if sign * (value - self.warn) >= 0:
            return "warning"
        if sign * (self.clear_level - value) >= 0:
            return "ok"
        return None


class _Series:
    """One sliding-window sample series (parallel time/value lists)."""

    __slots__ = ("times", "values", "max_window")

    def __init__(self, max_window: float) -> None:
        self.times: list[float] = []
        self.values: list[float] = []
        self.max_window = max_window

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(float(value))
        # Amortized prune against the widest window any rule reads.
        cutoff = time - self.max_window
        if self.times and self.times[0] < cutoff:
            keep = 0
            while keep < len(self.times) and self.times[keep] < cutoff:
                keep += 1
            del self.times[:keep]
            del self.values[:keep]

    def stat(self, stat: str, now: float, window: float) -> float | None:
        """A windowed statistic, or ``None`` when the window is empty.

        Pure Python on the (pruned, usually tiny) window: the engine
        evaluates per monitor event, where numpy's per-call overhead
        would dominate the actual arithmetic.
        """
        cutoff = now - window
        start = 0
        times = self.times
        while start < len(times) and times[start] < cutoff:
            start += 1
        if start >= len(times):
            return None
        window_values = self.values[start:]
        if stat == "mean":
            return math.fsum(window_values) / len(window_values)
        if stat == "max":
            return max(window_values)
        if stat == "p50":
            return _quantile(window_values, 0.5)
        if stat == "p95":
            return _quantile(window_values, 0.95)
        raise ValueError(f"unknown series statistic {stat!r}")


class _Scope:
    """Signal storage for one tenant scope ('' = platform-wide)."""

    __slots__ = ("gauges", "series")

    def __init__(self) -> None:
        self.gauges: dict[str, float] = {}
        self.series: dict[str, _Series] = {}


class _RuleRuntime:
    """Mutable evaluation state for one armed rule."""

    __slots__ = (
        "rule", "raised_kind", "cleared_kind", "state",
        "pending", "pending_since", "raised", "cleared",
    )

    def __init__(self, rule: AlarmRule, raised_kind: str, cleared_kind: str) -> None:
        self.rule = rule
        self.raised_kind = raised_kind
        self.cleared_kind = cleared_kind
        self.state = "ok"
        self.pending: str | None = None
        self.pending_since = 0.0
        self.raised = 0
        self.cleared = 0


class AlarmEngine:
    """Evaluates alarm rules against the live monitor event stream.

    Parameters
    ----------
    monitor:
        The platform monitor.  The engine subscribes for signal updates
        and logs its ``alarm_*`` events back onto it.
    rules:
        Initial rule set (more can be added via :meth:`add_rule`).
    scope_of:
        ``task_id -> tenant`` mapping: signals are additionally tracked
        per tenant so rules with a ``tenant`` field see only that
        tenant's events.
    """

    #: Default sample-window ceiling when a custom signal has no rule yet.
    DEFAULT_WINDOW_S = 3600.0

    def __init__(
        self,
        monitor: Monitor,
        rules: Iterable[AlarmRule],
        scope_of: Callable[[str], str],
    ) -> None:
        self.monitor = monitor
        self.sim = monitor.sim
        self.scope_of = scope_of
        self._rules: dict[str, _RuleRuntime] = {}
        self._scopes: dict[str, _Scope] = {"": _Scope()}
        self._submit_times: dict[str, float] = {}
        #: (rule scope, base signal) -> runtimes watching it.  Events only
        #: re-evaluate the rules whose signal they touched, so arming N
        #: rules costs O(rules-per-signal) per event, not O(N).
        self._watchers: dict[tuple[str, str], list[_RuleRuntime]] = {}
        for rule in rules:
            self.add_rule(rule)
        monitor.subscribe(self._on_event)

    # ------------------------------------------------------------------
    # rule management / inspection
    # ------------------------------------------------------------------
    def add_rule(
        self,
        rule: AlarmRule,
        raised_kind: str = "alarm_raised",
        cleared_kind: str = "alarm_cleared",
    ) -> AlarmRule:
        """Arm a rule; the event kinds are overridable (SLA watches use
        ``sla_violation`` / ``sla_recovered``)."""
        if rule.name in self._rules:
            raise ValueError(f"duplicate alarm rule {rule.name!r}")
        runtime = _RuleRuntime(rule, raised_kind, cleared_kind)
        self._rules[rule.name] = runtime
        self._watchers.setdefault((rule.tenant, _base_signal(rule.signal)), []).append(runtime)
        return rule

    def state_of(self, name: str) -> str:
        """Current state of one rule: ``ok`` / ``warning`` / ``critical``."""
        return self._rules[name].state

    def active_alarms(self) -> dict[str, str]:
        """Rule name -> severity for every currently raised alarm."""
        return {name: rt.state for name, rt in self._rules.items() if rt.state != "ok"}

    def summary(self) -> dict[str, dict]:
        """Per-rule raise/clear counts and final state (report material)."""
        return {
            name: {"raised": rt.raised, "cleared": rt.cleared, "state": rt.state}
            for name, rt in sorted(self._rules.items())
        }

    # ------------------------------------------------------------------
    # signal plumbing
    # ------------------------------------------------------------------
    def _scope(self, tenant: str) -> _Scope:
        scope = self._scopes.get(tenant)
        if scope is None:
            scope = self._scopes[tenant] = _Scope()
        return scope

    def _max_window(self, base: str) -> float:
        windows = [
            rt.rule.window_s
            for rt in self._rules.values()
            if rt.rule.signal == base or rt.rule.signal.startswith(base + "_")
        ]
        return max(windows, default=self.DEFAULT_WINDOW_S)

    def _bump(self, tenant: str, gauge: str, delta: float) -> None:
        for key in {"", tenant}:
            gauges = self._scope(key).gauges
            gauges[gauge] = gauges.get(gauge, 0.0) + delta

    def ingest_sample(self, signal: str, value: float, tenant: str = "") -> None:
        """Feed one sample of a custom (or built-in) series signal.

        The sample lands in the platform-wide scope and, when ``tenant``
        is non-empty, that tenant's scope too; the rules watching that
        signal are then re-evaluated at the current simulated time.
        """
        for key in {"", tenant}:
            scope = self._scope(key)
            series = scope.series.get(signal)
            if series is None:
                series = scope.series[signal] = _Series(self._max_window(signal))
            series.append(self.sim.now, value)
        self._evaluate_touched(tenant, (signal,))

    def value_of(self, rule: AlarmRule) -> float | None:
        """The rule's current signal value (``None`` = no data yet)."""
        scope = self._scope(rule.tenant)
        signal = rule.signal
        if signal in scope.gauges or signal in GAUGE_SIGNALS:
            return scope.gauges.get(signal, 0.0)
        base, stat = signal, "mean"
        for suffix in _STAT_SUFFIXES:
            if signal.endswith(suffix):
                base, stat = signal[: -len(suffix)], suffix[1:]
                break
        series = scope.series.get(base)
        if series is None:
            return None
        return series.stat(stat, self.sim.now, rule.window_s)

    # ------------------------------------------------------------------
    # event consumption
    # ------------------------------------------------------------------
    def _tenant_of(self, fields: dict) -> str:
        task_id = fields.get("task_id")
        return self.scope_of(task_id) if task_id else ""

    def _on_event(self, event: MonitorEvent) -> None:
        kind = event.kind
        fields = event.fields
        if kind == "task_submitted":
            tenant = self._tenant_of(fields)
            self._submit_times[fields["task_id"]] = event.time
            self._bump(tenant, "queue_depth", 1.0)
            touched: tuple[str, ...] = ("queue_depth",)
        elif kind == "task_scheduled":
            tenant = self._tenant_of(fields)
            self._bump(tenant, "queue_depth", -1.0)
            self._bump(tenant, "running_tasks", 1.0)
            submitted = self._submit_times.pop(fields["task_id"], event.time)
            self._record(tenant, "queue_wait", event.time - submitted)
            touched = ("queue_depth", "running_tasks", "queue_wait")
        elif kind in ("task_completed", "task_failed"):
            tenant = self._tenant_of(fields)
            self._bump(tenant, "running_tasks", -1.0)
            touched = ("running_tasks",)
        elif kind == "round_aggregated":
            tenant = self._tenant_of(fields)
            n_updates = float(fields.get("n_updates", 0))
            self._record(tenant, "round_updates", n_updates)
            touched = ("round_updates",)
            expected = fields.get("n_devices")
            if expected:
                loss = 1.0 - n_updates / float(expected)
                self._record(tenant, "dropout_loss_rate", loss)
                touched = ("round_updates", "dropout_loss_rate")
        elif kind == "transport_round":
            tenant = self._tenant_of(fields)
            touched_list = []
            uploads = float(fields.get("uploads", 0) or 0)
            if uploads > 0:
                self._record(tenant, "retry_rate", float(fields.get("retries", 0)) / uploads)
                self._record(
                    tenant, "duplicate_drop_rate", float(fields.get("duplicates", 0)) / uploads
                )
                touched_list += ["retry_rate", "duplicate_drop_rate"]
            expected = float(fields.get("expected", 0) or 0)
            if expected > 0:
                self._record(
                    tenant, "round_completeness", float(fields.get("delivered", 0)) / expected
                )
                touched_list.append("round_completeness")
            if not touched_list:
                return
            touched = tuple(touched_list)
        else:
            # Alarm/SLA/autoscale events and everything else: no signal
            # change, so no evaluation (and no log->evaluate recursion).
            return
        self._evaluate_touched(tenant, touched)

    def _record(self, tenant: str, base: str, value: float) -> None:
        for key in {"", tenant}:
            scope = self._scope(key)
            series = scope.series.get(base)
            if series is None:
                series = scope.series[base] = _Series(self._max_window(base))
            series.append(self.sim.now, value)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _evaluate_touched(self, tenant: str, bases: tuple[str, ...]) -> None:
        """Re-evaluate the rules watching the signals an event changed.

        A rule is (re)checked when its own signal receives data, when its
        min-hold confirmation fires, or — for windowed statistics — the
        next time either happens after old samples age out; stale decay
        alone never wakes a rule.
        """
        watchers = self._watchers
        for scope_key in {"", tenant}:
            for base in bases:
                for runtime in watchers.get((scope_key, base), ()):
                    self._evaluate(runtime)

    def _evaluate(self, runtime: _RuleRuntime) -> None:
        rule = runtime.rule
        value = self.value_of(rule)
        if value is None:
            return
        target = rule.target_state(value)
        if target is None or target == runtime.state:
            runtime.pending = None
            return
        now = self.sim.now
        if rule.min_hold_s > 0.0:
            if runtime.pending != target:
                runtime.pending = target
                runtime.pending_since = now
                # Confirm exactly when the hold expires (one-shot event;
                # re-evaluates with whatever the signal reads then).
                self.sim.schedule(rule.min_hold_s, self._check_rule, rule.name)
                return
            if now - runtime.pending_since < rule.min_hold_s:
                return
        self._transition(runtime, target, value)

    def _check_rule(self, name: str) -> None:
        runtime = self._rules.get(name)
        if runtime is not None:
            self._evaluate(runtime)

    def _transition(self, runtime: _RuleRuntime, target: str, value: float) -> None:
        rule = runtime.rule
        previous, runtime.state = runtime.state, target
        runtime.pending = None
        if target == "ok":
            runtime.cleared += 1
            self.monitor.log(
                runtime.cleared_kind,
                alarm=rule.name, signal=rule.signal, value=value,
                previous=previous, tenant=rule.tenant,
            )
        else:
            runtime.raised += 1
            self.monitor.log(
                runtime.raised_kind,
                alarm=rule.name, severity=target, signal=rule.signal,
                value=value, previous=previous, tenant=rule.tenant,
            )


__all__: Sequence[str] = (
    "AlarmEngine",
    "AlarmRule",
    "GAUGE_SIGNALS",
    "SERIES_SIGNALS",
    "SEVERITIES",
    "signal_exists",
)
