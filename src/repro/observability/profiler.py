"""RunProfiler: wall-clock accounting per simulator subsystem.

The ROADMAP's next scaling steps (whole-platform sharding, the 1M-device
milestone) need the *measured* bottleneck, not the guessed one.  This
profiler patches a fixed set of synchronous hot-path methods — the
kernel's ``step_batch`` loop, dataset synthesis, wave scheduling, numeric block execution,
DeviceFlow submission, interval scheduling, dispatch and chunk delivery, transport routing, cloud ingestion,
aggregation folds, alarm evaluation —
and accounts real ``perf_counter`` time to each, with *self time* (a
method's elapsed time minus the profiled calls it made) attributed via an
enter/exit stack so nested hooks (``step_batch`` → ``accept_block`` →
``receive_block``) never double-count.

Patching is class-level, so one attached profiler observes every
instance created while it is active — attach *before* building the
platform, detach (or use the context manager) when done.  Detaching
restores the original functions exactly; nothing in this module runs
when no profiler is attached, keeping the zero-cost-when-off contract.

Usage::

    profiler = RunProfiler()
    with profiler:
        report = ScenarioRunner(spec).run()
    print(profiler.table(wall_s))
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from importlib import import_module
from time import perf_counter

#: The profiled subsystem hooks: (module, class, method, category).
#: Every target is a plain synchronous method (never a generator — timing
#: a generator function would measure only its instantiation).
PROFILE_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.simkernel.simulator", "Simulator", "step_batch", "kernel.step_batch"),
    ("repro.data.avazu", "SyntheticAvazu", "generate", "data.synthesize"),
    ("repro.cluster.runner", "LogicalSimulation", "_register_plan", "logical.wave_schedule"),
    ("repro.cluster.runner", "LogicalSimulation", "_execute_numeric", "logical.numeric_block"),
    ("repro.phones.phonemgr", "PhoneMgr", "_register_plan", "phones.wave_schedule"),
    ("repro.phones.phonemgr", "PhoneMgr", "_record_samples", "phones.sampler"),
    ("repro.deviceflow.controller", "DeviceFlow", "submit_block", "deviceflow.submit"),
    ("repro.deviceflow.dispatcher", "Dispatcher", "dispatch", "deviceflow.dispatch"),
    ("repro.deviceflow.dispatcher", "Dispatcher", "_chunk_sent", "deviceflow.deliver"),
    ("repro.deviceflow.strategy", "TimeIntervalStrategy", "on_round_complete", "deviceflow.interval_schedule"),
    ("repro.cloud.transport", "TransportChannel", "accept_block", "transport.route"),
    ("repro.cloud.sink", "CloudIngestSink", "accept_block", "cloud.ingest_block"),
    ("repro.cloud.sink", "CloudIngestSink", "flow_receive", "cloud.flow_receive"),
    ("repro.cloud.aggregation", "AggregationService", "receive_block", "cloud.receive_block"),
    ("repro.cloud.aggregation", "AggregationService", "aggregate_now", "cloud.fold"),
    ("repro.observability.alarms", "AlarmEngine", "_on_event", "observability.alarms"),
)


@dataclass
class HotspotRow:
    """One subsystem's accumulated wall-clock accounting."""

    category: str
    calls: int
    total_s: float
    self_s: float


class RunProfiler:
    """Patch-based wall-clock profiler over :data:`PROFILE_POINTS`.

    Self-time semantics: when a profiled method calls another profiled
    method, the callee's elapsed time is subtracted from the caller's
    self time (the enter/exit stack carries child totals upward), so the
    ``self_s`` column sums to at most the run's wall clock and names the
    subsystem actually burning the time.
    """

    def __init__(self) -> None:
        #: category -> [calls, total_s, self_s]
        self._stats: dict[str, list[float]] = {}
        #: live call stack: [category, accumulated_child_seconds]
        self._stack: list[list] = []
        #: (class, method, the class's own definition or None when it inherits one)
        self._originals: list[tuple[type, str, Callable | None]] = []

    # ------------------------------------------------------------------
    def _wrap(self, func: Callable, category: str) -> Callable:
        profiler = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = profiler._stack
            stack.append([category, 0.0])
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frame = stack.pop()
                record = profiler._stats.setdefault(category, [0, 0.0, 0.0])
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__profiled_original__ = func
        return wrapper

    def attach(self) -> RunProfiler:
        """Patch every profile point; idempotence guarded."""
        if self._originals:
            raise RuntimeError("profiler is already attached")
        try:
            for module_name, class_name, method_name, category in PROFILE_POINTS:
                cls = getattr(import_module(module_name), class_name)
                original = getattr(cls, method_name)
                if hasattr(original, "__profiled_original__"):
                    raise RuntimeError(
                        f"{class_name}.{method_name} is already profiled "
                        f"(another RunProfiler is attached)"
                    )
                own = vars(cls).get(method_name)
                setattr(cls, method_name, self._wrap(original, category))
                self._originals.append((cls, method_name, own))
        except Exception:
            self.detach()
            raise
        return self

    def detach(self) -> None:
        """Restore every patched method (safe to call when detached)."""
        for cls, method_name, own in self._originals:
            if own is None:
                # Inherited (the tiers' engine methods live on ``TierRounds``):
                # leave no private copy behind, so a later patch of the base
                # method still reaches this class.
                delattr(cls, method_name)
            else:
                setattr(cls, method_name, own)
        self._originals = []
        self._stack = []

    def __enter__(self) -> RunProfiler:
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def rows(self) -> list[HotspotRow]:
        """Hotspots ranked by self time, descending (ties by name)."""
        rows = [
            HotspotRow(category, int(calls), total, self_s)
            for category, (calls, total, self_s) in self._stats.items()
        ]
        rows.sort(key=lambda row: (-row.self_s, row.category))
        return rows

    def table(self, wall_s: float) -> str:
        """The ranked hotspot table as printable text, against the run's wall clock."""
        rows = self.rows()
        accounted = sum(row.self_s for row in rows)
        lines = [
            f"{'#':>3} {'subsystem':<28} {'calls':>9} {'total s':>9} "
            f"{'self s':>9} {'self %':>7}"
        ]
        for rank, row in enumerate(rows, start=1):
            share = (row.self_s / wall_s * 100.0) if wall_s > 0 else 0.0
            lines.append(
                f"{rank:>3} {row.category:<28} {row.calls:>9} {row.total_s:>9.3f} "
                f"{row.self_s:>9.3f} {share:>6.1f}%"
            )
        lines.append(f"    {'accounted':<28} {'':>9} {'':>9} {accounted:>9.3f} of {wall_s:.3f}s wall")
        return "\n".join(lines)
