"""Outside-in per-layer tracing, from the benchmark's own files.

:class:`LayerTrace` class-level wraps the *public* entry points of each
``repro`` layer (:data:`WRAP_POINTS`) and records one in-memory span per call:
``(point, parent span, start, end)``.  Per-point call counts, total and *self*
time (a span's duration minus the part its child spans cover, so self times
sum to at most the wall clock) are aggregated from the spans afterwards.

Generator entry points (``TaskRunner.run``, the tier ``prepare`` /
``run_round`` processes) are wrapped with :class:`GeneratorProxy`, which
times every ``send`` / ``throw`` resumption as its own span.  The kernel's
``Process`` only ever calls those two methods, so the duck-typed proxy is
transparent — and it is what moves the task runner's dataset and plan
building out of ``Simulator.step_batch`` self time.

Nothing in ``src/`` knows about this module.  A wrap point whose module,
owner or attribute no longer exists is listed in
:attr:`LayerTrace.missing_points` and reads zero; it never fails the run.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from importlib import import_module
from time import perf_counter
from typing import Any

import numpy as np

SYNC, GENERATOR = "sync", "generator"

#: The layers of the per-layer budget, named after this repo's modules.
LAYERS = (
    "simkernel",
    "data",
    "cluster",
    "ml",
    "phones",
    "deviceflow",
    "cloud.transport",
    "cloud.sink",
    "cloud.storage",
    "cloud.aggregation",
    "scheduler",
    "observability",
    "scenarios",
)

#: (layer, module, owner class or None for a module-level binding, attribute, kind).
#: ``solve_allocation`` and ``build_report`` are patched where they are
#: *imported into*, because callers hold that binding, not the defining one.
WRAP_POINTS: tuple[tuple[str, str, str | None, str, str], ...] = (
    ("simkernel", "repro.simkernel.simulator", "Simulator", "step_batch", SYNC),
    ("data", "repro.data.avazu", "SyntheticAvazu", "generate", SYNC),
    ("cluster", "repro.cluster.runner", "LogicalSimulation", "prepare", GENERATOR),
    ("cluster", "repro.cluster.runner", "LogicalSimulation", "run_round", GENERATOR),
    ("ml", "repro.ml.operators", "OperatorFlow", "execute_block", SYNC),
    ("ml", "repro.ml.fedavg", "FedAvgAggregator", "aggregate", SYNC),
    ("phones", "repro.phones.phonemgr", "PhoneMgr", "prepare", GENERATOR),
    ("phones", "repro.phones.phonemgr", "PhoneMgr", "run_round", GENERATOR),
    ("phones", "repro.phones.phonemgr", "PhoneMgr", "teardown", GENERATOR),
    ("phones", "repro.phones.phone", "VirtualPhone", "replay_training_sessions", SYNC),
    ("deviceflow", "repro.deviceflow.controller", "DeviceFlow", "submit", SYNC),
    ("deviceflow", "repro.deviceflow.controller", "DeviceFlow", "submit_block", SYNC),
    ("deviceflow", "repro.deviceflow.dispatcher", "Dispatcher", "dispatch", SYNC),
    ("cloud.transport", "repro.cloud.transport", "TransportChannel", "accept", SYNC),
    ("cloud.transport", "repro.cloud.transport", "TransportChannel", "accept_block", SYNC),
    ("cloud.sink", "repro.cloud.sink", "CloudIngestSink", "accept", SYNC),
    ("cloud.sink", "repro.cloud.sink", "CloudIngestSink", "accept_block", SYNC),
    ("cloud.sink", "repro.cloud.sink", "CloudIngestSink", "flow_receive", SYNC),
    ("cloud.storage", "repro.cloud.storage", "ObjectStorage", "put", SYNC),
    ("cloud.storage", "repro.cloud.storage", "ObjectStorage", "put_block", SYNC),
    ("cloud.aggregation", "repro.cloud.aggregation", "AggregationService", "receive_message", SYNC),
    ("cloud.aggregation", "repro.cloud.aggregation", "AggregationService", "receive_block", SYNC),
    ("cloud.aggregation", "repro.cloud.aggregation", "AggregationService", "aggregate_now", SYNC),
    ("scheduler", "repro.scheduler.task_runner", "TaskRunner", "run", GENERATOR),
    ("scheduler", "repro.scheduler.task_runner", None, "solve_allocation", SYNC),
    ("observability", "repro.cloud.monitor", "Monitor", "log", SYNC),
    ("scenarios", "repro.scenarios.engine", None, "build_report", SYNC),
)


def point_name(owner: str | None, attribute: str) -> str:
    return f"{owner}.{attribute}" if owner else attribute


#: Work counts taken at the wrapped boundaries: point -> (counter, hook).
#: A hook sees the call's positional arguments (``self`` first) and, for a
#: synchronous point, its result; for a generator point it runs once when the
#: generator is created.  Counts that are plain call counts need no hook.
COUNT_HOOKS: dict[str, tuple[str, Callable[[tuple, Any], int]]] = {
    "Simulator.step_batch": ("simkernel.events", lambda args, fired: fired),
    "SyntheticAvazu.generate": ("data.devices", lambda args, dataset: args[0].n_devices),
    "OperatorFlow.execute_block": ("ml.device_rounds", lambda args, block: len(args[1])),
    "DeviceFlow.submit_block": ("deviceflow.block_messages", lambda args, shelved: shelved),
    "TransportChannel.accept_block": ("cloud.transport.block_uploads", lambda args, _: len(args[1])),
    "CloudIngestSink.accept_block": ("cloud.sink.block_devices", lambda args, _: len(args[1])),
    "AggregationService.aggregate_now": ("cloud.aggregation.updates", lambda args, record: record.n_updates),
    "TaskRunner.run": ("scheduler.devices_planned", lambda args, _: args[0].spec.total_devices),
}


class GeneratorProxy:
    """Stands in for a generator, timing each resumption through ``wrap``.

    ``send`` and ``throw`` are the generator's own bound methods behind a
    timing wrapper, so sent values, thrown exceptions and the
    ``StopIteration`` carrying the return value all pass through untouched.
    """

    def __init__(self, generator, wrap: Callable[[Callable], Callable]) -> None:
        self.send = wrap(generator.send)
        self.throw = wrap(generator.throw)
        self.close = generator.close
        self.__name__ = getattr(generator, "__name__", "generator")

    def __iter__(self) -> GeneratorProxy:
        return self

    def __next__(self):
        return self.send(None)


class LayerTrace:
    """Patch-based span recorder over :data:`WRAP_POINTS`.

    The hot path only appends to one flat list — ``point index, parent span,
    start, end`` per call, a span's id being its position — and everything
    else (call counts, total and self time per point) is aggregated from the
    spans after the run, outside the timed region.
    """

    def __init__(self) -> None:
        self.point_names = [point_name(owner, attr) for _, _, owner, attr, _ in WRAP_POINTS]
        #: flat records, four slots per span: point index, parent span id (-1: the run), start, end
        self.spans: list[float] = []
        self.counters: dict[str, int] = {counter: 0 for counter, _ in COUNT_HOOKS.values()}
        #: generator objects created per generator point (rounds run, tasks started)
        self.generators_started = {
            name: 0 for name, point in zip(self.point_names, WRAP_POINTS) if point[4] == GENERATOR
        }
        self.missing_points: list[str] = []
        self.failed_hooks: set[str] = set()
        self._current = [-1]  # id of the innermost open span
        self._originals: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _timed(self, func: Callable, index: int) -> Callable:
        spans = self.spans
        extend = spans.extend
        current = self._current

        def timed(*args, **kwargs):
            parent = current[0]
            slot = len(spans)
            current[0] = slot >> 2
            extend((index, parent, perf_counter(), 0.0))
            try:
                return func(*args, **kwargs)
            finally:
                spans[slot + 3] = perf_counter()
                current[0] = parent

        return timed

    def _count(self, name: str, args: tuple, result: Any) -> None:
        counter, hook = COUNT_HOOKS[name]
        try:
            self.counters[counter] += hook(args, result)
        except Exception:  # noqa: BLE001 - a later refactor may rename what a hook reads; never fail the run
            self.failed_hooks.add(name)

    def _wrap(self, func: Callable, index: int, kind: str) -> Callable:
        name = self.point_names[index]
        counted = name in COUNT_HOOKS
        if kind == GENERATOR:

            def wrapper(*args, **kwargs):
                self.generators_started[name] += 1
                if counted:
                    self._count(name, args, None)
                return GeneratorProxy(func(*args, **kwargs), lambda resume: self._timed(resume, index))

        elif counted:
            timed = self._timed(func, index)

            def wrapper(*args, **kwargs):
                result = timed(*args, **kwargs)
                self._count(name, args, result)
                return result

        else:
            wrapper = self._timed(func, index)
        return functools.update_wrapper(wrapper, func)

    # ------------------------------------------------------------------
    def attach(self) -> LayerTrace:
        """Patch every wrap point that still exists."""
        if self._originals:
            raise RuntimeError("layer trace is already attached")
        for index, (_, module_name, owner_name, attribute, kind) in enumerate(WRAP_POINTS):
            try:
                target = import_module(module_name)
                if owner_name is not None:
                    target = getattr(target, owner_name)
                original = vars(target)[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing_points.append(self.point_names[index])
                continue
            setattr(target, attribute, self._wrap(original, index, kind))
            self._originals.append((target, attribute, original))
        return self

    def detach(self) -> None:
        """Put every original attribute back (the identical objects)."""
        for target, attribute, original in self._originals:
            setattr(target, attribute, original)
        self._originals = []

    # ------------------------------------------------------------------
    @property
    def n_spans(self) -> int:
        return len(self.spans) // 4

    def span_rows(self) -> list[list[float]]:
        """Spans as ``[point index, parent span id, start, end]`` rows; a span's id is its row number."""
        flat = self.spans
        return [flat[i : i + 4] for i in range(0, len(flat), 4)]

    def points(self) -> dict[str, dict[str, float]]:
        """Per wrap point: calls, total seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so over all points it sums to the time covered by
        top-level spans — at most the run's wall clock.
        """
        n_points = len(WRAP_POINTS)
        rows = np.asarray(self.spans, dtype=np.float64).reshape(-1, 4)
        point = rows[:, 0].astype(np.intp)
        parent = rows[:, 1].astype(np.intp)
        duration = rows[:, 3] - rows[:, 2]
        calls = np.bincount(point, minlength=n_points)
        total = np.bincount(point, weights=duration, minlength=n_points)
        nested = parent >= 0
        covered = np.bincount(point[parent[nested]], weights=duration[nested], minlength=n_points)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(total[i] - covered[i])}
            for i, name in enumerate(self.point_names)
        }

    def layers(self, points: dict[str, dict[str, float]] | None = None) -> dict[str, dict[str, float]]:
        """Per layer: calls and self seconds summed over its wrap points."""
        points = self.points() if points is None else points
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, *_), name in zip(WRAP_POINTS, self.point_names):
            totals[layer]["calls"] += points[name]["calls"]
            totals[layer]["self_s"] += points[name]["self_s"]
        return totals
