"""One workload in one fresh process: set up, warm up, time repeats, check outputs.

Started by ``run.py`` (never by hand) with ``src`` on ``PYTHONPATH`` and the
BLAS/OpenMP thread pins in the environment.  Prints one JSON object as the
last line of its standard output.

Every operation is one ``ScenarioRunner(spec).run()`` on the default
production path (``batch=True``, no tracer, no profiler) with a fresh spec
and platform, bracketed by two runs of the yardstick kernel
(:mod:`reference`) that calibrate its host times.

* A *plain* worker (``--trace 0``) does one memory repeat at the workload's
  full scale, reads ``ru_maxrss``, then times sub-second repeats at the
  workload's timed scale until ``--seconds`` have passed.
* A *traced* worker (``--trace 1``) alternates plain and
  :class:`~layertrace.LayerTrace`-wrapped repeats at the full scale in the
  same process, so the tracing overhead is a same-process ratio and the
  traced digest is checked against the plain one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy
from layertrace import LayerTrace
from reference import Tick, speed
from workloads import FULL_SCALES, SCALES, build_spec, check_report, pinned_digests, report_digest, sim_stats

from repro.scenarios import ScenarioRunner

#: Timed repeats behind every median, however short ``--seconds`` is.
MIN_REPEATS = 3
#: No repeat starts after this many seconds of worker life, whatever
#: ``MIN_REPEATS`` says, so a worker on a slow box still ends well inside
#: the driver's time limit.
HARD_LIMIT_S = 120.0


def run_once(workload: str, scale: int, seed: int, trace: LayerTrace | None = None) -> dict:
    """One operation: fresh spec + platform, timed ``run()``, checked output."""
    runner = ScenarioRunner(build_spec(workload, scale, seed))
    if trace is not None:
        trace.attach()
    try:
        cpu0 = time.process_time()
        start = time.perf_counter()
        report = runner.run()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
    finally:
        if trace is not None:
            trace.detach()
    return {
        "scale": scale,
        "wall_s": wall,
        "cpu_s": cpu,
        "devices": report.total_devices,
        "tasks": report.total_tasks,
        "digest": report_digest(report),
        "sim": sim_stats(report),
        "problems": check_report(workload, report),
    }


def layer_metrics(trace: LayerTrace, op: dict, wall_speed: float = 1.0) -> dict[str, float]:
    """The per-layer metric values of one traced operation.

    ``wall_speed`` turns raw seconds into nominal ones (see :mod:`reference`);
    shares and counts do not depend on it.
    """
    wall = op["wall_s"]
    sim = op["sim"]
    points = trace.points()
    layers = trace.layers(points)
    counters = trace.counters

    def calls(point: str) -> int:
        return points[point]["calls"]

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: dict[str, float] = {}
    for layer, row in layers.items():
        values[f"{layer}.self_s"] = row["self_s"] * wall_speed
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.share"] = per(row["self_s"], wall)
    messages = calls("DeviceFlow.submit") + counters["deviceflow.block_messages"]
    scalar_devices = calls("CloudIngestSink.accept")
    block_devices = counters["cloud.sink.block_devices"]
    values.update(
        {
            "simkernel.events": counters["simkernel.events"],
            "simkernel.events_per_batch": per(counters["simkernel.events"], calls("Simulator.step_batch")),
            "data.devices": counters["data.devices"],
            "data.us_per_device": per(values["data.self_s"] * 1e6, counters["data.devices"]),
            "ml.device_rounds": counters["ml.device_rounds"],
            "ml.us_per_device_round": per(values["ml.self_s"] * 1e6, counters["ml.device_rounds"]),
            "cluster.rounds": trace.generators_started["LogicalSimulation.run_round"],
            "phones.rounds": trace.generators_started["PhoneMgr.run_round"],
            "deviceflow.messages": messages,
            "deviceflow.dispatches": calls("Dispatcher.dispatch"),
            "deviceflow.msgs_per_dispatch": per(messages, calls("Dispatcher.dispatch")),
            "cloud.transport.uploads": calls("TransportChannel.accept") + counters["cloud.transport.block_uploads"],
            "cloud.transport.retries": sim["transport_retries"],
            "cloud.transport.duplicates": sim["transport_duplicates"],
            "cloud.transport.late_drops": sim["transport_late_drops"],
            "cloud.transport.abandoned": sim["transport_abandoned"],
            "cloud.transport.overcount": sim["transport_overcount"],
            "cloud.sink.scalar_devices": scalar_devices,
            "cloud.sink.block_devices": block_devices,
            "cloud.sink.block_share": per(block_devices, block_devices + scalar_devices),
            "cloud.storage.puts": calls("ObjectStorage.put"),
            "cloud.storage.block_puts": calls("ObjectStorage.put_block"),
            "cloud.aggregation.folds": calls("AggregationService.aggregate_now"),
            "cloud.aggregation.updates": counters["cloud.aggregation.updates"],
            "scheduler.tasks": trace.generators_started["TaskRunner.run"],
            "scheduler.devices_planned": counters["scheduler.devices_planned"],
            "scheduler.us_per_device": per(values["scheduler.self_s"] * 1e6, counters["scheduler.devices_planned"]),
            "observability.monitor_events": calls("Monitor.log"),
            "observability.alarm_events": sim["alarm_events"],
            "scenarios.sim_makespan_s": sim["sim_makespan_s"],
            "scenarios.tasks_completed": sim["tasks_completed"],
            "scenarios.updates_aggregated": sim["updates_aggregated"],
            "trace.unattributed_share": 1.0 - per(sum(row["self_s"] for row in layers.values()), wall),
            "trace.spans": trace.n_spans,
        }
    )
    return values


class Operations:
    """Runs operations between yardstick ticks, checks them and keeps count.

    An operation fails if its output is wrong (:func:`check_report`), its
    digest differs from the pin for its scale, or its digest or simulated
    statistics differ from the first operation's at that scale.  A failed
    operation contributes no timing.
    """

    def __init__(self, workload: str, seed: int, pins: dict[int, str]) -> None:
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: first operation seen per scale: what every later one must reproduce
        self.first: dict[int, dict] = {}
        #: the latest yardstick run: the one after an operation is the one before the next
        self.tick = Tick()
        self.tick_walls = [self.tick.wall_s]

    def run(self, label: str, scale: int, trace: LayerTrace | None = None) -> dict | None:
        """One operation with its calibration factors added, or ``None`` if it failed."""
        before = self.tick
        op = run_once(self.workload, scale, self.seed, trace)
        after = self.tick = Tick()
        self.tick_walls.append(after.wall_s)
        self.attempted += 1
        problems = list(op["problems"])
        pin = self.pins.get(scale)
        if pin is not None and op["digest"] != pin:
            problems.append(f"digest {op['digest'][:16]} differs from the pin {pin[:16]}")
        first = self.first.setdefault(scale, op)
        if op["digest"] != first["digest"] or op["sim"] != first["sim"]:
            problems.append(f"digest {op['digest'][:16]} differs from the first repeat's at this scale")
        if problems:
            self.failed += 1
            self.failures.extend(f"{label} (operation {self.attempted}): {problem}" for problem in problems)
            return None
        op["wall_speed"] = speed(before.wall_s, after.wall_s)
        op["cpu_speed"] = speed(before.cpu_s, after.cpu_s)
        return op

    def outcome(self, scale: int) -> dict:
        """Deterministic facts of the runs at ``scale`` (empty if none ran)."""
        first = self.first.get(scale)
        if first is None:
            return {}
        return {key: first[key] for key in ("scale", "devices", "tasks", "digest", "sim")}


def times(op: dict) -> dict[str, float]:
    """Calibrated (nominal) and raw host seconds of a successful operation."""
    return {
        "wall_s": op["wall_s"] * op["wall_speed"],
        "cpu_s": op["cpu_s"] * op["cpu_speed"],
        "raw_wall_s": op["wall_s"],
        "raw_cpu_s": op["cpu_s"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="time repeats for this long")
    parser.add_argument("--scale-div", type=int, default=1, help="run at 1/N of the workload's scales")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.time() just before the spawn")
    parser.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    parser.add_argument("--spans-out", default="", help="write the last traced repeat's spans here")
    args = parser.parse_args(argv)
    born = time.perf_counter()

    workload, seed = args.workload, args.seed
    scale = max(100, SCALES[workload] // args.scale_div)
    full_scale = max(100, FULL_SCALES[workload] // args.scale_div)
    # Set-up: interpreter + imports (above) + spec build + platform construction.
    ScenarioRunner(build_spec(workload, scale, seed))
    raw_setup_s = time.time() - args.spawned_at
    Tick()  # the first kernel run of a process is slower than the rest
    result: dict = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "full_scale": full_scale,
        "setup_s": raw_setup_s * speed(Tick().wall_s, Tick().wall_s),
        "raw_setup_s": raw_setup_s,
        "numpy": numpy.__version__,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    pins, why_unpinned = pinned_digests(workload, seed) if args.scale_div == 1 else ({}, "not at full scale")
    result["pinned"] = bool(pins)
    result["why_unpinned"] = why_unpinned
    run_once(workload, max(100, scale // 20), seed)  # untimed warm-up: caches, lazy imports
    ops = Operations(workload, seed, pins)
    plain: list[dict] = []
    traced: list[dict] = []
    last_trace: LayerTrace | None = None

    if not args.trace:
        # The memory repeat comes first: nothing larger has run in this process yet.
        full = ops.run("memory repeat", full_scale)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if full is not None:
            result["full_repeat"] = times(full)

    started = time.perf_counter()
    repeats = 0
    while True:
        now = time.perf_counter()
        if now - born >= HARD_LIMIT_S or (repeats >= MIN_REPEATS and now - started >= args.seconds):
            break
        repeats += 1
        op = ops.run(f"plain repeat {repeats}", full_scale if args.trace else scale)
        if op is not None:
            plain.append(times(op))
        if args.trace:
            last_trace = LayerTrace()
            op = ops.run(f"traced repeat {repeats}", full_scale, last_trace)
            if op is not None:
                traced.append({**times(op), "metrics": layer_metrics(last_trace, op, op["wall_speed"])})

    if traced:
        plain_median = statistics.median(op["wall_s"] for op in plain) if plain else 0.0
        for op in traced:
            op["metrics"]["trace.overhead_ratio"] = op["wall_s"] / plain_median if plain_median else 0.0
    if last_trace is not None:
        result["missing_points"] = last_trace.missing_points
        result["failed_hooks"] = sorted(last_trace.failed_hooks)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump({"points": last_trace.point_names, "spans": last_trace.span_rows()}, handle)
    result.update(
        timed=ops.outcome(scale),
        full=ops.outcome(full_scale),
        plain=plain,
        traced=traced,
        yardstick_s=statistics.median(ops.tick_walls),
        ops_attempted=ops.attempted,
        ops_failed=ops.failed,
        failures=ops.failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
